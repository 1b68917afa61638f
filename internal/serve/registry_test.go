package serve

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"picpredict"
	"picpredict/internal/obs"
)

// memoInstance is one of the server's two caches under a test-controlled
// build: get resolves key, running build on a miss.
type memoInstance struct {
	names memoNames
	get   func(ctx context.Context, key string, build func(context.Context) error) (hit bool, err error)
	len   func() int
}

// memoKinds opens each of the server's caches with room for capacity
// entries: the model registry (each model set costs 1) and the workload
// memo, whose every build returns the same small workload, so capacity
// entries of its resident bytes fill it exactly.
var memoKinds = []struct {
	name string
	open func(t *testing.T, capacity int, reg *obs.Registry) memoInstance
}{
	{"models", func(_ *testing.T, capacity int, reg *obs.Registry) memoInstance {
		r := NewRegistry(context.Background(), capacity, reg)
		return memoInstance{
			names: modelMemoNames,
			get: func(ctx context.Context, key string, build func(context.Context) error) (bool, error) {
				_, hit, err := r.GetOrTrain(ctx, Fingerprint(key, picpredict.ModelSynthetic, picpredict.TrainOptions{}),
					picpredict.ModelSynthetic, func(ctx context.Context) (picpredict.Models, error) {
						return picpredict.Models{}, build(ctx)
					})
				return hit, err
			},
			len: r.Len,
		}
	}},
	{"workloads", func(t *testing.T, capacity int, reg *obs.Registry) memoInstance {
		wl := testWorkload(t)
		m := newWorkloadMemo(context.Background(), int64(capacity)*wl.ResidentBytes(), reg)
		return memoInstance{
			names: workloadMemoNames,
			get: func(ctx context.Context, key string, build func(context.Context) error) (bool, error) {
				k := workloadKey{opts: picpredict.WorkloadOptions{Mapping: picpredict.MappingKind(key)}}
				_, hit, err := m.get(ctx, k, "", func(ctx context.Context) (*picpredict.Workload, error) {
					if err := build(ctx); err != nil {
						return nil, err
					}
					return wl, nil
				})
				return hit, err
			},
			len: m.len,
		}
	}},
}

// TestSingleflightCollapses proves the memo's core guarantee: N concurrent
// requests for one absent key trigger exactly one build, and every caller
// gets its result.
func TestSingleflightCollapses(t *testing.T) {
	for _, kind := range memoKinds {
		t.Run(kind.name, func(t *testing.T) {
			reg := obs.New()
			m := kind.open(t, 4, reg)
			var builds atomic.Int64
			build := func(ctx context.Context) error {
				if ctx.Err() != nil {
					return ctx.Err()
				}
				builds.Add(1)
				time.Sleep(50 * time.Millisecond) // widen the collapse window
				return nil
			}

			const n = 32
			var wg sync.WaitGroup
			errs := make([]error, n)
			for i := 0; i < n; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					_, errs[i] = m.get(context.Background(), "a", build)
				}(i)
			}
			wg.Wait()
			for i, err := range errs {
				if err != nil {
					t.Fatalf("caller %d: %v", i, err)
				}
			}
			if got := builds.Load(); got != 1 {
				t.Fatalf("%d concurrent identical misses ran %d builds, want exactly 1", n, got)
			}
			if hits := reg.Counter(m.names.hits).Value(); hits != n-1 {
				t.Errorf("cache hits = %d, want %d (every caller but the first)", hits, n-1)
			}
			if misses := reg.Counter(m.names.misses).Value(); misses != 1 {
				t.Errorf("cache misses = %d, want 1", misses)
			}
		})
	}
}

// TestLRUEviction exercises the capacity bound: the least-recently-used
// completed entry is dropped, and a re-request rebuilds it.
func TestLRUEviction(t *testing.T) {
	for _, kind := range memoKinds {
		t.Run(kind.name, func(t *testing.T) {
			reg := obs.New()
			m := kind.open(t, 2, reg)
			var builds atomic.Int64
			build := func(ctx context.Context) error {
				if ctx.Err() != nil {
					return ctx.Err()
				}
				builds.Add(1)
				return nil
			}

			for _, k := range []string{"a", "b", "c"} {
				if hit, err := m.get(context.Background(), k, build); err != nil || hit {
					t.Fatalf("building %s: hit=%t err=%v", k, hit, err)
				}
			}
			if got := m.len(); got != 2 {
				t.Fatalf("memo holds %d entries over capacity 2", got)
			}
			if ev := reg.Counter(m.names.evictions).Value(); ev != 1 {
				t.Fatalf("evictions = %d, want 1", ev)
			}
			// "a" was least recently used and must be gone; re-requesting
			// rebuilds (and evicts "b", now the LRU of [c, b]).
			if hit, err := m.get(context.Background(), "a", build); err != nil || hit {
				t.Fatalf("re-request of evicted key: hit=%t err=%v, want a miss", hit, err)
			}
			if got := builds.Load(); got != 4 {
				t.Fatalf("builds = %d, want 4 (a, b, c, a again)", got)
			}
			// "c" survived both evictions: touching it is a hit.
			if hit, err := m.get(context.Background(), "c", build); err != nil || !hit {
				t.Fatalf("surviving key: hit=%t err=%v, want a hit", hit, err)
			}
			if ev := reg.Counter(m.names.evictions).Value(); ev != 2 {
				t.Fatalf("evictions = %d, want 2", ev)
			}
		})
	}
}

// TestFailedTrainingNotCached: a failed build must not poison the key —
// only the waiters attached to the failed attempt see its error, and the
// next request rebuilds.
func TestFailedTrainingNotCached(t *testing.T) {
	for _, kind := range memoKinds {
		t.Run(kind.name, func(t *testing.T) {
			m := kind.open(t, 2, nil)
			var builds atomic.Int64
			boom := errors.New("boom")
			failing := func(ctx context.Context) error {
				if ctx.Err() != nil {
					return ctx.Err()
				}
				builds.Add(1)
				return boom
			}
			if _, err := m.get(context.Background(), "k", failing); !errors.Is(err, boom) {
				t.Fatalf("err = %v, want boom", err)
			}
			if got := m.len(); got != 0 {
				t.Fatalf("failed entry still resident (len %d)", got)
			}
			ok := func(ctx context.Context) error {
				if ctx.Err() != nil {
					return ctx.Err()
				}
				builds.Add(1)
				return nil
			}
			if hit, err := m.get(context.Background(), "k", ok); err != nil || hit {
				t.Fatalf("retry after failure: hit=%t err=%v, want a fresh miss", hit, err)
			}
			if got := builds.Load(); got != 2 {
				t.Fatalf("builds = %d, want 2", got)
			}
		})
	}
}

// TestWaitCancellation: a caller abandoning the wait does not abort the
// build another caller still waits on.
func TestWaitCancellation(t *testing.T) {
	for _, kind := range memoKinds {
		t.Run(kind.name, func(t *testing.T) {
			m := kind.open(t, 2, nil)
			building, release := make(chan struct{}), make(chan struct{})
			build := func(ctx context.Context) error {
				close(building)
				select {
				case <-release:
					return nil
				case <-ctx.Done():
					return ctx.Err()
				}
			}

			done := make(chan error, 1)
			go func() {
				_, err := m.get(context.Background(), "k", build)
				done <- err
			}()
			<-building // the patient caller owns the in-flight entry

			// A second caller with an already-cancelled context leaves
			// immediately.
			cancelled, cancel := context.WithCancel(context.Background())
			cancel()
			if _, err := m.get(cancelled, "k", build); !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled waiter got %v, want context.Canceled", err)
			}

			close(release)
			if err := <-done; err != nil {
				t.Fatalf("patient caller: %v", err)
			}
			if got := m.len(); got != 1 {
				t.Fatalf("entry count = %d, want 1 (the build survived the cancelled waiter)", got)
			}
		})
	}
}

// TestEntriesSnapshot checks the /v1/models view: states, hit counts, MRU
// order.
func TestEntriesSnapshot(t *testing.T) {
	r := NewRegistry(context.Background(), 4, nil)
	train := func(ctx context.Context) (picpredict.Models, error) {
		if ctx.Err() != nil {
			return picpredict.Models{}, ctx.Err()
		}
		return picpredict.Models{}, nil
	}
	ka := Fingerprint("a", picpredict.ModelSynthetic, picpredict.TrainOptions{})
	kb := Fingerprint("b", picpredict.ModelWallClock, picpredict.TrainOptions{})
	for _, k := range []struct {
		key  ModelKey
		kind picpredict.ModelKind
	}{{ka, picpredict.ModelSynthetic}, {kb, picpredict.ModelWallClock}} {
		if _, _, err := r.GetOrTrain(context.Background(), k.key, k.kind, train); err != nil {
			t.Fatal(err)
		}
	}
	// Touch "a" so it is most recently used.
	if _, hit, err := r.GetOrTrain(context.Background(), ka, picpredict.ModelSynthetic, train); err != nil || !hit {
		t.Fatalf("hit=%t err=%v", hit, err)
	}
	es := r.Entries()
	if len(es) != 2 {
		t.Fatalf("entries = %d, want 2", len(es))
	}
	if es[0].Key != ka || es[0].Hits != 1 || es[0].State != "ready" {
		t.Errorf("MRU entry = %+v, want key a, 1 hit, ready", es[0])
	}
	if es[1].Key != kb || es[1].Kind != picpredict.ModelWallClock {
		t.Errorf("LRU entry = %+v, want key b (wallclock)", es[1])
	}
}

// TestFingerprintSensitivity: every training-relevant field changes the
// key; platform/query fields do not exist in it by construction.
func TestFingerprintSensitivity(t *testing.T) {
	base := Fingerprint("crc", picpredict.ModelSynthetic, picpredict.TrainOptions{Seed: 1, Fast: true})
	variants := []ModelKey{
		Fingerprint("other", picpredict.ModelSynthetic, picpredict.TrainOptions{Seed: 1, Fast: true}),
		Fingerprint("crc", picpredict.ModelWallClock, picpredict.TrainOptions{Seed: 1, Fast: true}),
		Fingerprint("crc", picpredict.ModelSynthetic, picpredict.TrainOptions{Seed: 2, Fast: true}),
		Fingerprint("crc", picpredict.ModelSynthetic, picpredict.TrainOptions{Seed: 1}),
		Fingerprint("crc", picpredict.ModelSynthetic, picpredict.TrainOptions{Seed: 1, Fast: true, Noise: 0.2}),
	}
	for i, v := range variants {
		if v == base {
			t.Errorf("variant %d collides with base key", i)
		}
	}
	if again := Fingerprint("crc", picpredict.ModelSynthetic, picpredict.TrainOptions{Seed: 1, Fast: true}); again != base {
		t.Error("fingerprint is not deterministic")
	}
}

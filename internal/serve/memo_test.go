package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"picpredict"
	"picpredict/internal/obs"
)

// costMemo is a memo whose values are their own cost.
func costMemo(capacity int64, reg *obs.Registry) *memo[string, int64] {
	return newMemo[string](context.Background(), capacity, false, func(v int64) int64 { return v }, reg, workloadMemoNames)
}

func put(t *testing.T, m *memo[string, int64], key string, cost int64) bool {
	t.Helper()
	v, hit, err := m.get(context.Background(), key, "", func(context.Context) (int64, error) { return cost, nil })
	if err != nil || v != cost {
		t.Fatalf("get %s: %d, %v", key, v, err)
	}
	return hit
}

// TestMemoEvictionByCost: the bound is on summed cost, not entry count —
// one expensive entry displaces several cheap least-recently-used ones.
func TestMemoEvictionByCost(t *testing.T) {
	reg := obs.New()
	m := costMemo(10, reg)
	put(t, m, "a", 4)
	put(t, m, "b", 4)
	put(t, m, "c", 5) // 13 > 10: a, the LRU, goes
	if got := m.len(); got != 2 || m.used != 9 {
		t.Fatalf("after c: %d entries costing %d, want 2 costing 9", got, m.used)
	}
	if !put(t, m, "b", 4) { // touch: order is now b, c
		t.Fatal("b was evicted instead of a")
	}
	put(t, m, "d", 6) // 15 > 10: c, now the LRU, goes
	if got := m.len(); got != 2 || m.used != 10 {
		t.Fatalf("after d: %d entries costing %d, want 2 costing 10", got, m.used)
	}
	for key, resident := range map[string]bool{"a": false, "b": true, "c": false, "d": true} {
		if _, ok := m.entries[key]; ok != resident {
			t.Errorf("%s resident = %t, want %t", key, ok, resident)
		}
	}
	if ev := reg.Counter(obs.ServeWorkloadCacheEvictions).Value(); ev != 2 {
		t.Errorf("evictions = %d, want 2", ev)
	}
}

// TestMemoOversizedServedNotKept: a value costing more than the whole
// budget reaches its caller but never displaces resident entries.
func TestMemoOversizedServedNotKept(t *testing.T) {
	reg := obs.New()
	m := costMemo(10, reg)
	put(t, m, "small", 3)
	for i := 0; i < 2; i++ {
		if put(t, m, "big", 11) {
			t.Fatalf("request %d for the oversized key hit; it must never be kept", i)
		}
	}
	if got := m.len(); got != 1 || m.used != 3 {
		t.Fatalf("%d entries costing %d, want only small (3)", got, m.used)
	}
	if !put(t, m, "small", 3) {
		t.Error("the oversized value displaced a resident entry")
	}
	if ev := reg.Counter(obs.ServeWorkloadCacheEvictions).Value(); ev != 0 {
		t.Errorf("evictions = %d, want 0", ev)
	}
}

// TestMemoInFlightNeverEvicted: filling the memo past its budget while a
// build is in flight evicts only completed entries — evicting the
// in-flight one would let the next request for its key start a duplicate
// build.
func TestMemoInFlightNeverEvicted(t *testing.T) {
	m := costMemo(2, nil)
	building, release := make(chan struct{}), make(chan struct{})
	done := make(chan error, 1)
	go func() {
		v, _, err := m.get(context.Background(), "slow", "", func(context.Context) (int64, error) {
			close(building)
			<-release
			return 1, nil
		})
		if err == nil && v != 1 {
			err = fmt.Errorf("got %d, want 1", v)
		}
		done <- err
	}()
	<-building
	for _, k := range []string{"a", "b", "c"} {
		put(t, m, k, 1)
	}
	m.mu.Lock()
	_, resident := m.entries["slow"]
	n, used := len(m.entries), m.used
	m.mu.Unlock()
	if !resident {
		t.Fatal("the in-flight entry was evicted")
	}
	if n != 3 || used != 2 {
		t.Errorf("%d entries charged %d, want the in-flight one plus two completed charged 2", n, used)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("in-flight caller: %v", err)
	}
}

// TestWorkloadBuildCancelledWithLastWaiter: a workload build lives exactly
// as long as someone waits for it. One waiter leaving keeps it running for
// the other; the last one leaving cancels it and drops the entry, so the
// next request starts a fresh build instead of inheriting the
// cancellation.
func TestWorkloadBuildCancelledWithLastWaiter(t *testing.T) {
	reg := obs.New()
	m := newWorkloadMemo(context.Background(), 1<<20, reg)
	key := workloadKey{opts: picpredict.WorkloadOptions{Ranks: 8}}
	buildCtx := make(chan context.Context, 1)
	blocked := func(ctx context.Context) (*picpredict.Workload, error) {
		buildCtx <- ctx
		<-ctx.Done()
		return nil, ctx.Err()
	}

	ctxA, cancelA := context.WithCancel(context.Background())
	ctxB, cancelB := context.WithCancel(context.Background())
	errs := make(chan error, 2)
	go func() {
		_, _, err := m.get(ctxA, key, "", blocked)
		errs <- err
	}()
	bctx := <-buildCtx
	m.mu.Lock()
	e := m.entries[key]
	m.joinLocked(e) // B joins, as a hit does, before A leaves
	m.mu.Unlock()
	go func() {
		_, err := m.wait(ctxB, e)
		errs <- err
	}()

	cancelA()
	if err := <-errs; !errors.Is(err, context.Canceled) {
		t.Fatalf("A got %v, want its own cancellation", err)
	}
	if bctx.Err() != nil {
		t.Fatal("the build was cancelled while B still waited on it")
	}
	cancelB()
	if err := <-errs; !errors.Is(err, context.Canceled) {
		t.Fatalf("B got %v, want its own cancellation", err)
	}
	<-bctx.Done() // the last waiter leaving cancels the build
	if got := m.len(); got != 0 {
		t.Fatalf("abandoned entry still resident (len %d)", got)
	}

	wl := testWorkload(t)
	got, hit, err := m.get(context.Background(), key, "", func(context.Context) (*picpredict.Workload, error) { return wl, nil })
	if err != nil || hit || got != wl {
		t.Fatalf("request after abandonment: hit=%t err=%v, want a fresh successful build", hit, err)
	}
	if misses := reg.Counter(obs.ServeWorkloadCacheMisses).Value(); misses != 2 {
		t.Errorf("misses = %d, want 2", misses)
	}
}

// TestConcurrentIdenticalPredictsBuildOnce: 16 identical trace queries in
// flight at once share one workload build and return bit-identical answers.
func TestConcurrentIdenticalPredictsBuildOnce(t *testing.T) {
	reg := obs.New()
	s, _ := newTestServer(t, Config{Workers: 4, Queue: 16, Obs: reg}, 0)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const n = 16
	body := `{"ranks":[8],"mapping":"element","filter":0.004,"model":{"fast":true,"seed":1}}`
	totals := make([]uint64, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/predict", "application/json", strings.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			var pr PredictResponse
			if resp.StatusCode != http.StatusOK || json.NewDecoder(resp.Body).Decode(&pr) != nil || len(pr.Results) != 1 {
				t.Errorf("request %d: status %d", i, resp.StatusCode)
				return
			}
			totals[i] = math.Float64bits(pr.Results[0].TotalSec)
		}(i)
	}
	wg.Wait()
	for i := range totals {
		if totals[i] != totals[0] {
			t.Fatalf("request %d total differs from request 0", i)
		}
	}
	if misses := reg.Counter(obs.ServeWorkloadCacheMisses).Value(); misses != 1 {
		t.Errorf("workload builds = %d, want exactly 1", misses)
	}
	if hits := reg.Counter(obs.ServeWorkloadCacheHits).Value(); hits != n-1 {
		t.Errorf("workload memo hits = %d, want %d", hits, n-1)
	}
}

// TestWorkloadMemoCrossPath: for every mapping, with and without ghosts,
// and for the element rebalance variants, a repeated trace query is a
// workload-memo hit whose results are bit-identical to PredictFromTrace;
// "" and "none" share one entry; and two traces registered under one
// checksum string — one with a different mesh — never share an entry.
func TestWorkloadMemoCrossPath(t *testing.T) {
	reg := obs.New()
	s, _ := newTestServer(t, Config{Workers: 2, Obs: reg}, 0)
	elems, n, _ := testTrace(t).Mesh()
	coarse, fine := bareTrace(t).WithMesh(elems[0], elems[1], elems[2], n), bareTrace(t).WithMesh(2*elems[0], elems[1], elems[2], n)
	for name, tr := range map[string]*picpredict.Trace{"coarse": coarse, "fine": fine} {
		if err := s.AddTrace(name, tr, testCRC); err != nil {
			t.Fatal(err)
		}
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	type input struct {
		scenario string
		mapping  picpredict.MappingKind
		filter   float64
		rebal    string
	}
	var inputs []input
	for _, mk := range []picpredict.MappingKind{picpredict.MappingBin, picpredict.MappingElement,
		picpredict.MappingHilbert, picpredict.MappingWeighted, picpredict.MappingOhHelp} {
		for _, f := range []float64{0, 0.004} {
			inputs = append(inputs, input{"test", mk, f, ""})
		}
	}
	for _, rb := range []string{"", "none", "threshold:1.5"} {
		inputs = append(inputs, input{"test", picpredict.MappingElement, 0.004, rb})
	}
	inputs = append(inputs, input{"coarse", picpredict.MappingElement, 0.004, ""}, input{"fine", picpredict.MappingElement, 0.004, ""})

	machine := picpredict.QuartzMachine()
	models := testModels(t)
	ranks := []int{4, 8}
	seen := map[string]bool{}
	for _, in := range inputs {
		body := fmt.Sprintf(`{"scenario":%q,"ranks":[4,8],"mapping":%q,"filter":%g,"rebalance":%q,"model":{"fast":true,"seed":1}}`,
			in.scenario, in.mapping, in.filter, in.rebal)
		canon := fmt.Sprintf("%s|%s|%g|%s", in.scenario, in.mapping, in.filter, strings.TrimPrefix(in.rebal, "none"))
		want := map[bool]string{false: "miss", true: "hit"}[seen[canon]]
		seen[canon] = true
		for attempt := 0; attempt < 2; attempt++ {
			status, raw := postPredict(t, ts.URL, body)
			var pr PredictResponse
			if status != http.StatusOK || json.Unmarshal(raw, &pr) != nil || len(pr.Results) != len(ranks) {
				t.Fatalf("%s: %d (%s)", body, status, raw)
			}
			for i, res := range pr.Results {
				if res.WorkloadCache != want {
					t.Errorf("%s attempt %d R=%d: workload_cache %q, want %q", body, attempt, ranks[i], res.WorkloadCache, want)
				}
				wl, pred, err := picpredict.PredictFromTrace(context.Background(), s.traces[in.scenario].tr, models, picpredict.QueryOptions{
					Workload:       picpredict.WorkloadOptions{Ranks: ranks[i], Mapping: in.mapping, FilterRadius: in.filter, Rebalance: in.rebal},
					TotalElements:  16384,
					GridN:          4,
					FilterElements: 1,
					Machine:        &machine,
				})
				if err != nil {
					t.Fatal(err)
				}
				if ref := resultOf(wl, pred); !sameResult(res, ref) {
					t.Errorf("%s R=%d: served %+v, PredictFromTrace %+v", body, ranks[i], res, ref)
				}
			}
			want = "hit"
		}
	}
	if misses, distinct := reg.Counter(obs.ServeWorkloadCacheMisses).Value(), int64(len(seen)*len(ranks)); misses != distinct {
		t.Errorf("workload builds = %d, want one per distinct (input, ranks): %d", misses, distinct)
	}
}

// bareTrace is a mesh-less copy of the test trace, as a trace read from a
// file is.
func bareTrace(t testing.TB) *picpredict.Trace {
	t.Helper()
	var buf strings.Builder
	if err := testTrace(t).Write(&buf); err != nil {
		t.Fatal(err)
	}
	tr, err := picpredict.ReadTrace(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// sameResult compares two results' figures, floats by their bits.
func sameResult(a, b PredictResult) bool {
	bits := math.Float64bits
	return a.Ranks == b.Ranks && a.PeakParticles == b.PeakParticles && a.RebalanceEpochs == b.RebalanceEpochs &&
		bits(a.TotalSec) == bits(b.TotalSec) && bits(a.ComputeSec) == bits(b.ComputeSec) &&
		bits(a.CommSec) == bits(b.CommSec) && bits(a.MeanUtilization) == bits(b.MeanUtilization) &&
		bits(a.MigrationSec) == bits(b.MigrationSec)
}

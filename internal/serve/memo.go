package serve

import (
	"container/list"
	"context"
	"sync"
	"time"

	"picpredict/internal/obs"
)

// memo is the cache behind both of the server's caches, the model registry
// and the workload memo: a cost-bounded LRU with singleflight builds.
//
//   - Singleflight: concurrent requests for an absent key collapse onto one
//     build; the first starts it, the rest wait on the same entry.
//   - Failures are not cached: a failed entry is removed before its waiters
//     wake, so only they see the error and the next request rebuilds.
//   - Cost bound: each completed entry is charged cost(value) (at least 1)
//     and least-recently-used completed entries are evicted while the
//     total exceeds capacity. An entry costing more than the whole capacity
//     is returned to its waiters but not kept.
//   - In-flight entries are never evicted and carry no charge: evicting one
//     would let a concurrent request start a duplicate build, exactly what
//     singleflight exists to prevent. The memo may therefore exceed its
//     capacity by whatever is still being built.
//
// Builds run in their own goroutine on a context derived from life. A
// detached memo (model training) builds on life itself, so a waiter that
// gives up never aborts work others may join later. Otherwise (workload
// builds) the build context is cancelled as soon as its last waiter leaves,
// and the entry is dropped at that moment, so a later request starts a
// fresh build instead of joining one that is about to fail with someone
// else's cancellation.
type memo[K comparable, V any] struct {
	capacity int64
	life     context.Context
	detached bool
	cost     func(V) int64
	reg      *obs.Registry
	names    memoNames

	mu      sync.Mutex
	entries map[K]*memoEntry[K, V]
	order   *list.List // front = most recently used
	used    int64      // summed cost of the kept, completed entries
}

// memoNames are the obs instruments one memo instance records into.
type memoNames struct {
	hits, misses, evictions string // counters
	buildNs                 string // timer
}

// memoEntry is one slot. ready is closed when the build finishes; before
// that, val, err and buildNs must not be read.
type memoEntry[K comparable, V any] struct {
	key   K
	label string
	elem  *list.Element

	ready   chan struct{}
	val     V
	err     error
	buildNs int64

	// mutable under memo.mu.
	cost    int64 // charge against capacity; 0 until kept
	hits    int64
	waiters int
	cancel  context.CancelFunc // nil for a detached memo
}

// newMemo returns an empty memo bounded by capacity (at least 1).
func newMemo[K comparable, V any](life context.Context, capacity int64, detached bool, cost func(V) int64, reg *obs.Registry, names memoNames) *memo[K, V] {
	return &memo[K, V]{
		capacity: max(capacity, 1),
		life:     life,
		detached: detached,
		cost:     cost,
		reg:      reg,
		names:    names,
		entries:  make(map[K]*memoEntry[K, V]),
		order:    list.New(),
	}
}

// get returns the value for key, building it with build on a miss; label
// annotates a new entry in snapshots. hit reports whether an entry (ready
// or in flight) already existed. A cancelled ctx abandons the wait.
func (m *memo[K, V]) get(ctx context.Context, key K, label string, build func(context.Context) (V, error)) (v V, hit bool, err error) {
	m.mu.Lock()
	if e := m.entries[key]; e != nil {
		m.joinLocked(e)
		m.mu.Unlock()
		m.reg.Counter(m.names.hits).Inc()
		v, err = m.wait(ctx, e)
		return v, true, err
	}
	e := &memoEntry[K, V]{key: key, label: label, ready: make(chan struct{}), waiters: 1}
	buildCtx := m.life
	if !m.detached {
		buildCtx, e.cancel = context.WithCancel(m.life)
	}
	e.elem = m.order.PushFront(e)
	m.entries[key] = e
	m.mu.Unlock()
	m.reg.Counter(m.names.misses).Inc()

	go m.run(buildCtx, e, build)
	v, err = m.wait(ctx, e)
	return v, false, err
}

// peek joins a resident entry (ready or in flight) exactly like a hit, and
// never starts a build: an absent key reports ok=false immediately.
func (m *memo[K, V]) peek(ctx context.Context, key K) (v V, ok bool, err error) {
	m.mu.Lock()
	e := m.entries[key]
	if e == nil {
		m.mu.Unlock()
		return v, false, nil
	}
	m.joinLocked(e)
	m.mu.Unlock()
	m.reg.Counter(m.names.hits).Inc()
	v, err = m.wait(ctx, e)
	return v, true, err
}

func (m *memo[K, V]) joinLocked(e *memoEntry[K, V]) {
	m.order.MoveToFront(e.elem)
	e.hits++
	e.waiters++
}

// run builds e's value on ctx and publishes it.
func (m *memo[K, V]) run(ctx context.Context, e *memoEntry[K, V], build func(context.Context) (V, error)) {
	t0 := time.Now()
	v, err := build(ctx)
	e.buildNs = time.Since(t0).Nanoseconds()
	m.reg.Timer(m.names.buildNs).Observe(time.Duration(e.buildNs))
	if e.cancel != nil {
		e.cancel() // release the build context
	}
	var cost int64
	if err == nil {
		cost = max(m.cost(v), 1)
	}
	m.mu.Lock()
	e.val, e.err = v, err
	if err != nil || cost > m.capacity {
		m.removeLocked(e) // failures are not cached; oversized values are served, not kept
	} else if m.entries[e.key] == e { // still resident: not abandoned while building
		e.cost = cost
		m.used += cost
		m.evictLocked()
	}
	m.mu.Unlock()
	close(e.ready)
}

// wait blocks until e is built or ctx is done. A waiter that gives up on an
// in-flight entry of an attached memo may be its last one; then the build
// is cancelled and the entry dropped.
func (m *memo[K, V]) wait(ctx context.Context, e *memoEntry[K, V]) (V, error) {
	select {
	case <-e.ready:
		return e.val, e.err
	case <-ctx.Done():
	}
	m.mu.Lock()
	e.waiters--
	var cancel context.CancelFunc
	// Still resident with no charge yet means still building: a kept entry
	// costs at least 1, and a finished failure has left the map.
	if e.waiters == 0 && e.cancel != nil && m.entries[e.key] == e && e.cost == 0 {
		cancel = e.cancel
		m.removeLocked(e)
	}
	m.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	var zero V
	return zero, ctx.Err()
}

// evictLocked drops least-recently-used kept entries until the charged
// total fits the capacity. Entries still building carry no charge and are
// skipped.
func (m *memo[K, V]) evictLocked() {
	for m.used > m.capacity {
		var victim *memoEntry[K, V]
		for el := m.order.Back(); el != nil && victim == nil; el = el.Prev() {
			if e := el.Value.(*memoEntry[K, V]); e.cost > 0 {
				victim = e
			}
		}
		if victim == nil {
			return
		}
		m.removeLocked(victim)
		m.reg.Counter(m.names.evictions).Inc()
	}
}

// removeLocked drops e from the map and LRU order and releases its charge.
// Idempotent, and a no-op once a newer entry holds the key.
func (m *memo[K, V]) removeLocked(e *memoEntry[K, V]) {
	if m.entries[e.key] != e {
		return
	}
	delete(m.entries, e.key)
	m.order.Remove(e.elem)
	m.used -= e.cost
	e.cost = 0
}

// len returns the number of resident entries (in-flight included).
func (m *memo[K, V]) len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.entries)
}

// memoInfo is one entry frozen for a snapshot.
type memoInfo[K comparable] struct {
	key     K
	label   string
	ready   bool
	hits    int64
	buildNs int64
}

// snapshot lists the resident entries in most-recently-used-first order.
func (m *memo[K, V]) snapshot() []memoInfo[K] {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]memoInfo[K], 0, len(m.entries))
	for el := m.order.Front(); el != nil; el = el.Next() {
		e := el.Value.(*memoEntry[K, V])
		info := memoInfo[K]{key: e.key, label: e.label, hits: e.hits}
		select {
		case <-e.ready:
			info.ready = true
			info.buildNs = e.buildNs
		default:
		}
		out = append(out, info)
	}
	return out
}

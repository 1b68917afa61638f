package mapping

import (
	"fmt"
	"sort"

	"picpredict/internal/geom"
	"picpredict/internal/mesh"
)

// WeightedElementMapper implements the load-balanced element partitioning
// of Zhai et al. (paper ref [11], and the framework's "evaluate any new
// mapping strategy" use case): elements keep their particles (particle–grid
// locality preserved), but elements are distributed so every processor
// carries a similar *combined* load of grid points and particles. Elements
// are ordered along the Hilbert curve (preserving spatial compactness) and
// the ordered sequence is split into R contiguous chunks of approximately
// equal weight.
//
// Re-partitioning is lazy, as in the reference: the element partition is
// reused across frames until some processor's load exceeds
// RebalanceFactor × the mean, at which point the partition is rebuilt from
// the current frame — so migration cost concentrates in rebalance epochs.
type WeightedElementMapper struct {
	Mesh     *mesh.Mesh
	NumRanks int
	// GridWeight is the load contribution of one element's grid points
	// relative to one particle (the α in load = α·N³ + particles).
	GridWeight float64
	// RebalanceFactor triggers repartitioning when the per-rank load
	// exceeds this multiple of the mean (default 1.5 when zero).
	RebalanceFactor float64

	// current element→rank assignment, nil until first frame
	owner []int
	// elements in Hilbert order, computed once
	order []int
	// baselineRatio is the worst/mean load ratio right after the last
	// rebuild: element granularity may make the nominal factor
	// unreachable, so the trigger adapts to what partitioning can
	// actually achieve (hysteresis).
	baselineRatio float64
	// Rebalances counts partition rebuilds (epochs), an output statistic.
	Rebalances int

	// frames counts Assign calls (the current 0-based frame index).
	frames int
	// pending holds migrations recorded since the last drain.
	pending []Migration

	// scratch
	elemOf   []int
	weights  []float64
	oldOwner []int
	counts   []int64
}

// NewWeightedElementMapper builds the mapper with default parameters.
func NewWeightedElementMapper(m *mesh.Mesh, ranks int) *WeightedElementMapper {
	return &WeightedElementMapper{Mesh: m, NumRanks: ranks, GridWeight: 0.01, RebalanceFactor: 1.5}
}

// Name implements Mapper.
func (*WeightedElementMapper) Name() string { return "weighted" }

// Ranks implements Mapper.
func (wm *WeightedElementMapper) Ranks() int { return wm.NumRanks }

// Assign implements Mapper.
func (wm *WeightedElementMapper) Assign(dst []int, pos []geom.Vec3) error {
	if len(dst) != len(pos) {
		return fmt.Errorf("mapping: dst length %d != positions %d", len(dst), len(pos))
	}
	if wm.NumRanks <= 0 {
		return fmt.Errorf("mapping: weighted mapper needs positive rank count, got %d", wm.NumRanks)
	}
	nel := wm.Mesh.NumElements()
	if wm.order == nil {
		wm.order = hilbertElementOrder(wm.Mesh)
		wm.weights = make([]float64, nel)
	}
	// Locate every particle's element.
	if cap(wm.elemOf) < len(pos) {
		wm.elemOf = make([]int, len(pos))
	}
	elemOf := wm.elemOf[:len(pos)]
	for i, p := range pos {
		elemOf[i] = wm.Mesh.Home(p)
	}

	if wm.owner == nil || wm.overloaded(elemOf) {
		// Snapshot the outgoing assignment (nil on the initial build, which
		// installs rather than migrates) so the rebuild's owner diff can be
		// priced as migration volume.
		old := wm.oldOwner
		if wm.owner != nil {
			old = append(old[:0], wm.owner...)
			wm.oldOwner = old
		} else {
			old = nil
		}
		wm.repartition(elemOf)
		wm.Rebalances++
		// Record what partitioning could actually achieve for this frame;
		// future triggers adapt to it (element granularity may keep the
		// ratio above the nominal factor for heavily clustered beds).
		wm.baselineRatio = wm.loadRatio(elemOf)
		if old != nil {
			wm.recordMigrations(old, elemOf)
		}
	}
	for i, e := range elemOf {
		dst[i] = wm.owner[e]
	}
	wm.frames++
	return nil
}

// recordMigrations diffs the outgoing assignment against the rebuilt one and
// appends one Migration per changed (src,dst) rank pair, weighted by this
// frame's resident particles.
func (wm *WeightedElementMapper) recordMigrations(old, elemOf []int) {
	if wm.counts == nil {
		wm.counts = make([]int64, wm.Mesh.NumElements())
	} else {
		clear(wm.counts)
	}
	for _, e := range elemOf {
		wm.counts[e]++
	}
	type volume struct{ elems, parts int64 }
	moved := make(map[[2]int]*volume)
	for e, src := range old {
		dst := wm.owner[e]
		if dst == src {
			continue
		}
		k := [2]int{src, dst}
		v := moved[k]
		if v == nil {
			v = &volume{}
			moved[k] = v
		}
		v.elems++
		v.parts += wm.counts[e]
	}
	// Collect-then-sort: map iteration order must not leak into the
	// migration stream.
	keys := make([][2]int, 0, len(moved))
	for k := range moved {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, b int) bool {
		if keys[a][0] != keys[b][0] {
			return keys[a][0] < keys[b][0]
		}
		return keys[a][1] < keys[b][1]
	})
	for _, k := range keys {
		v := moved[k]
		wm.pending = append(wm.pending, Migration{
			Frame: wm.frames, Src: k[0], Dst: k[1],
			Elements: v.elems, Particles: v.parts,
		})
	}
}

// DrainMigrations implements MigrationSource.
func (wm *WeightedElementMapper) DrainMigrations() []Migration {
	out := wm.pending
	wm.pending = nil
	return out
}

// RebalanceEpochs implements RebalanceStats. The count matches Rebalances —
// for this mapper the initial build goes through the same lazy-rebalance
// machinery, so it is included.
func (wm *WeightedElementMapper) RebalanceEpochs() int { return wm.Rebalances }

// overloaded reports whether the current partition's worst rank load
// exceeds the rebalance trigger under this frame's particle placement: the
// nominal RebalanceFactor × mean, relaxed to 110 % of the ratio the last
// rebuild achieved.
func (wm *WeightedElementMapper) overloaded(elemOf []int) bool {
	factor := wm.RebalanceFactor
	if factor <= 0 {
		factor = 1.5
	}
	if adaptive := wm.baselineRatio * 1.1; adaptive > factor {
		factor = adaptive
	}
	return wm.loadRatio(elemOf) > factor
}

// loadRatio returns worst/mean combined load of the current partition for
// this frame's particle placement.
func (wm *WeightedElementMapper) loadRatio(elemOf []int) float64 {
	loads := make([]float64, wm.NumRanks)
	gridLoad := wm.GridWeight * float64(wm.Mesh.N*wm.Mesh.N*wm.Mesh.N)
	for _, r := range wm.owner {
		loads[r] += gridLoad
	}
	for _, e := range elemOf {
		loads[wm.owner[e]]++
	}
	total, worst := 0.0, 0.0
	for _, l := range loads {
		total += l
		if l > worst {
			worst = l
		}
	}
	if total == 0 {
		return 0
	}
	return worst / (total / float64(wm.NumRanks))
}

// repartition rebuilds the element→rank map: greedy contiguous chunks of
// ~equal weight along the Hilbert order.
func (wm *WeightedElementMapper) repartition(elemOf []int) {
	nel := wm.Mesh.NumElements()
	if wm.owner == nil {
		wm.owner = make([]int, nel)
	}
	gridLoad := wm.GridWeight * float64(wm.Mesh.N*wm.Mesh.N*wm.Mesh.N)
	for e := range wm.weights {
		wm.weights[e] = gridLoad
	}
	for _, e := range elemOf {
		wm.weights[e]++
	}
	total := 0.0
	for _, w := range wm.weights {
		total += w
	}
	target := total / float64(wm.NumRanks)
	rank, acc := 0, 0.0
	for _, e := range wm.order {
		// Advance to the next rank when the current one is full, leaving
		// enough ranks for the remaining elements.
		if acc >= target && rank < wm.NumRanks-1 {
			rank++
			acc -= target
		}
		wm.owner[e] = rank
		acc += wm.weights[e]
	}
}

// hilbertElementOrder returns the mesh elements sorted by 3-D Hilbert index.
func hilbertElementOrder(m *mesh.Mesh) []int {
	g := m.Elements
	maxDim := g.Nx
	if g.Ny > maxDim {
		maxDim = g.Ny
	}
	if g.Nz > maxDim {
		maxDim = g.Nz
	}
	order := 1
	for (1 << order) < maxDim {
		order++
	}
	n := m.NumElements()
	keys := make([]uint64, n)
	idx := make([]int, n)
	for e := 0; e < n; e++ {
		x, y, z := g.Coords(e)
		keys[e] = hilbertIndex3D(order, uint32(x), uint32(y), uint32(z))
		idx[e] = e
	}
	sort.Slice(idx, func(a, b int) bool {
		if keys[idx[a]] != keys[idx[b]] {
			return keys[idx[a]] < keys[idx[b]]
		}
		return idx[a] < idx[b]
	})
	return idx
}

var (
	_ Mapper          = (*WeightedElementMapper)(nil)
	_ MigrationSource = (*WeightedElementMapper)(nil)
	_ RebalanceStats  = (*WeightedElementMapper)(nil)
)

package mapping

import (
	"fmt"
	"sort"

	"picpredict/internal/geom"
	"picpredict/internal/mesh"
)

// oracleAssign is the reference bin mapping: the same breadth-first planar
// cut as BinMapper.Assign, but every cut runs a quickselect (or midpoint
// partition) through pos by index (keyLess) and rebuilds both child boxes
// by folding their particles, instead of reading presorted windows. It
// returns the per-particle ranks, the bins and each bin's particles.
func oracleAssign(bm *BinMapper, pos []geom.Vec3) ([]int, []Bin, [][]int) {
	dst := make([]int, len(pos))
	if len(pos) == 0 {
		return dst, nil, nil
	}
	perm := make([]int, len(pos))
	for i := range perm {
		perm[i] = i
	}
	maxBins := bm.NumRanks
	if bm.Relaxed {
		maxBins = len(pos)
	}
	seq := 0
	var done []oracleRange
	queue := []oracleRange{{lo: 0, hi: len(pos), box: geom.BoundingBox(pos), seq: seq}}
	head := 0
	levelEnd := len(queue)
	for head < len(queue) {
		if head == levelEnd {
			if len(done)+(len(queue)-head) >= maxBins {
				break
			}
			levelEnd = len(queue)
		}
		top := queue[head]
		head++
		if top.box.MaxExtent() <= bm.Threshold || top.hi-top.lo < 2 {
			done = append(done, top)
			continue
		}
		l, r := oracleSplit(bm.Policy, top, pos, perm)
		seq++
		l.seq = seq
		seq++
		r.seq = seq
		queue = append(queue, l, r)
	}
	bins := append(done, queue[head:]...)
	sort.Slice(bins, func(a, b int) bool { return bins[a].seq < bins[b].seq })
	var out []Bin
	var members [][]int
	for i, b := range bins {
		rank := i % bm.NumRanks
		for _, pi := range perm[b.lo:b.hi] {
			dst[pi] = rank
		}
		out = append(out, Bin{Box: b.box, Count: b.hi - b.lo, Rank: rank})
		members = append(members, perm[b.lo:b.hi])
	}
	return dst, out, members
}

// oracleRange is a work-queue item of oracleAssign: a contiguous range of
// its permutation plus the range's box and creation order.
type oracleRange struct {
	lo, hi int // perm[lo:hi]
	box    geom.AABB
	seq    int // creation order, for deterministic output ordering
}

// oracleSplit is the cut of oracleAssign: selection and midpoint
// partition both read each particle's coordinate through perm.
func oracleSplit(policy SplitPolicy, b oracleRange, pos []geom.Vec3, perm []int) (oracleRange, oracleRange) {
	axis := b.box.LongestAxis()
	seg := perm[b.lo:b.hi]
	var cut int
	switch policy {
	case SplitMidpoint:
		mid := b.box.Center().Axis(axis)
		for i := range seg {
			if pos[seg[i]].Axis(axis) < mid {
				seg[cut], seg[i] = seg[i], seg[cut]
				cut++
			}
		}
		if cut == 0 || cut == len(seg) {
			cut = len(seg) / 2
			selectK(seg, pos, axis, cut)
		}
	default:
		cut = len(seg) / 2
		selectK(seg, pos, axis, cut)
	}
	mkRange := func(lo, hi int) oracleRange {
		box := geom.EmptyBox()
		for _, pi := range perm[lo:hi] {
			box = box.Extend(pos[pi])
		}
		return oracleRange{lo: lo, hi: hi, box: box}
	}
	return mkRange(b.lo, b.lo+cut), mkRange(b.lo+cut, b.hi)
}

// keyLess orders particles by (coordinate along axis, particle index) — a
// strict total order, so selection is unambiguous even with coincident
// particles.
func keyLess(pos []geom.Vec3, axis, a, b int) bool {
	ca, cb := pos[a].Axis(axis), pos[b].Axis(axis)
	//lint:allow floatcmp exact comparison is what makes this a strict total order; a tolerance would make selection ambiguous
	if ca != cb {
		return ca < cb
	}
	return a < b
}

// selectK rearranges seg so its k smallest elements (by keyLess) occupy
// seg[:k]. Iterative quickselect with median-of-three pivots; deterministic
// because the key order is total.
func selectK(seg []int, pos []geom.Vec3, axis, k int) {
	lo, hi := 0, len(seg) // working window [lo, hi)
	for hi-lo > 1 {
		if k <= lo || k >= hi {
			return
		}
		// Median-of-three pivot on the window.
		mid := lo + (hi-lo)/2
		a, b, c := seg[lo], seg[mid], seg[hi-1]
		pivot := medianOf3(pos, axis, a, b, c)
		// Three-way partition around the pivot key.
		lt, i, gt := lo, lo, hi
		for i < gt {
			switch {
			case keyLess(pos, axis, seg[i], pivot):
				seg[lt], seg[i] = seg[i], seg[lt]
				lt++
				i++
			case keyLess(pos, axis, pivot, seg[i]):
				gt--
				seg[i], seg[gt] = seg[gt], seg[i]
			default: // equal (total order: only the pivot element itself)
				i++
			}
		}
		switch {
		case k < lt:
			hi = lt
		case k >= gt:
			lo = gt
		default:
			return // k lands in the equal band: done
		}
	}
}

func medianOf3(pos []geom.Vec3, axis, a, b, c int) int {
	if keyLess(pos, axis, b, a) {
		a, b = b, a
	}
	if keyLess(pos, axis, c, b) {
		b = c
		if keyLess(pos, axis, b, a) {
			b = a
		}
	}
	return b
}

// oracleWeighted is the reference weighted mapping: the standalone mapper
// NewWeightedMapper replaced, with its own lazy trigger, Hilbert-order cut
// and migration diff, adding loads one particle at a time.
//
// It implements the load-balanced element partitioning of Zhai et al. (paper ref [11], and the framework's "evaluate any new
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
type oracleWeighted struct {
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

// newOracleWeighted builds the mapper with default parameters.
func newOracleWeighted(m *mesh.Mesh, ranks int) *oracleWeighted {
	return &oracleWeighted{Mesh: m, NumRanks: ranks, GridWeight: 0.01, RebalanceFactor: 1.5}
}

// Ranks implements Mapper.
func (wm *oracleWeighted) Ranks() int { return wm.NumRanks }

// Assign implements Mapper.
func (wm *oracleWeighted) Assign(dst []int, pos []geom.Vec3) error {
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
func (wm *oracleWeighted) recordMigrations(old, elemOf []int) {
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
func (wm *oracleWeighted) DrainMigrations() []Migration {
	out := wm.pending
	wm.pending = nil
	return out
}

// overloaded reports whether the current partition's worst rank load
// exceeds the rebalance trigger under this frame's particle placement: the
// nominal RebalanceFactor × mean, relaxed to 110 % of the ratio the last
// rebuild achieved.
func (wm *oracleWeighted) overloaded(elemOf []int) bool {
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
func (wm *oracleWeighted) loadRatio(elemOf []int) float64 {
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
func (wm *oracleWeighted) repartition(elemOf []int) {
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

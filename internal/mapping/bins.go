package mapping

import (
	"fmt"
	"sort"

	"picpredict/internal/geom"
)

// SplitPolicy selects where the recursive planar cut places its plane.
type SplitPolicy int

const (
	// SplitMedian cuts at the median particle coordinate, halving the
	// particle count — CMT-nek's choice, optimising load balance.
	SplitMedian SplitPolicy = iota
	// SplitMidpoint cuts at the spatial midpoint of the bin box — cheaper
	// per cut but can leave skewed counts; kept for the ablation study.
	SplitMidpoint
)

// String implements fmt.Stringer.
func (p SplitPolicy) String() string {
	switch p {
	case SplitMedian:
		return "median"
	case SplitMidpoint:
		return "midpoint"
	default:
		return fmt.Sprintf("SplitPolicy(%d)", int(p))
	}
}

// Bin is one leaf of the recursive planar cut: a set of particles with its
// tight bounding box.
type Bin struct {
	// Box is the tight bounding box of the bin's particles.
	Box geom.AABB
	// Count is the number of particles in the bin.
	Count int
	// Rank is the processor the bin is assigned to.
	Rank int
}

// BinMapper implements bin-based mapping (§III-C): each frame, the particle
// boundary (bounding box of all particles) is recursively partitioned by
// planar cuts until either every bin's size has reached the threshold bin
// size or the number of bins equals the processor count; bins are then
// distributed to processors.
//
// The threshold bin size is the projection filter size (§IV-D): cutting
// below the filter support would only create bins whose particles interact
// across the cut anyway.
type BinMapper struct {
	// NumRanks is the processor count R; at most this many bins are
	// created unless Relaxed is set.
	NumRanks int
	// Threshold is the minimum bin extent (threshold bin size); a bin
	// whose longest side is at or below it is never split further.
	Threshold float64
	// Relaxed removes the processor-count termination so the cut runs to
	// the threshold alone. The paper uses this mode ("we have relaxed the
	// processor count limitation") to find the maximum useful processor
	// count for a problem (Fig 6); relaxed bins are assigned to ranks
	// round-robin.
	Relaxed bool
	// Policy selects the cut placement; the zero value is SplitMedian.
	Policy SplitPolicy

	// results of the most recent Assign
	lastBins []Bin

	// scratch
	perm  []int
	keys  []float64 // cut-axis coordinates gathered per split, aligned with perm
	index *binIndex // ghost-query accelerator, rebuilt per Assign

	// ghost-query views: ownView backs the mapper's own GhostRanks,
	// views are handed out by GhostViews for parallel fills.
	ownView *binGhostView
	views   []*binGhostView
}

// NewBinMapper constructs a bin mapper for ranks processors with the given
// threshold bin size.
func NewBinMapper(ranks int, threshold float64) *BinMapper {
	return &BinMapper{NumRanks: ranks, Threshold: threshold}
}

// Ranks implements Mapper.
func (bm *BinMapper) Ranks() int { return bm.NumRanks }

// Bins returns the bins produced by the most recent Assign call. The slice
// is reused across calls.
func (bm *BinMapper) Bins() []Bin { return bm.lastBins }

// NumBins returns the number of bins produced by the most recent Assign.
func (bm *BinMapper) NumBins() int { return len(bm.lastBins) }

// binRange is a work-queue item: a contiguous range of bm.perm plus its box.
type binRange struct {
	lo, hi int // perm[lo:hi]
	box    geom.AABB
	seq    int // creation order, for deterministic output ordering
}

// Assign implements Mapper.
func (bm *BinMapper) Assign(dst []int, pos []geom.Vec3) error {
	if len(dst) != len(pos) {
		return fmt.Errorf("mapping: dst length %d != positions %d", len(dst), len(pos))
	}
	if bm.NumRanks <= 0 {
		return fmt.Errorf("mapping: bin mapper needs positive rank count, got %d", bm.NumRanks)
	}
	if bm.Threshold < 0 {
		return fmt.Errorf("mapping: negative threshold %g", bm.Threshold)
	}
	bm.lastBins = bm.lastBins[:0]
	bm.index = nil // bins change; the ghost index rebuilds lazily
	if len(pos) == 0 {
		return nil
	}
	if cap(bm.perm) < len(pos) {
		bm.perm = make([]int, len(pos))
		bm.keys = make([]float64, len(pos))
	}
	perm := bm.perm[:len(pos)]
	for i := range perm {
		perm[i] = i
	}

	maxBins := bm.NumRanks
	if bm.Relaxed {
		maxBins = len(pos) // effectively unlimited
	}
	// Breadth-first recursive planar cut: bins split in creation order, so
	// the partition deepens level by level, as in CMT-nek's recursive
	// decomposition. Bins already at the threshold bin size (or holding a
	// single particle) are final and move to done.
	//
	// The processor-count termination is checked at *level boundaries*:
	// once a level starts, it completes, so the final bin count may land
	// between R and 2R. When it exceeds R, bins fold onto processors
	// round-robin by creation order — which pairs the earliest-retired
	// (densest) bins with the deepest (sparsest) ones. This is the
	// mechanism behind the paper's Fig 5 dip: as soon as the particle
	// boundary grows enough that the threshold yields more bins than
	// processors, the smallest configuration must co-locate bins and its
	// peak workload rises above the larger configurations'.
	seq := 0
	var done []binRange
	queue := []binRange{{lo: 0, hi: len(pos), box: geom.BoundingBox(pos), seq: seq}}
	head := 0
	levelEnd := len(queue)
	for head < len(queue) {
		if head == levelEnd {
			// Level boundary: stop deepening once the bin count has
			// reached the processor budget.
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
		l, r := bm.split(top, pos, perm)
		seq++
		l.seq = seq
		seq++
		r.seq = seq
		queue = append(queue, l, r)
	}

	// Stable bin order: sort by creation sequence for determinism, then
	// assign ranks round-robin (1:1 while bins ≤ R).
	bins := append(done, queue[head:]...)
	sort.Slice(bins, func(a, b int) bool { return bins[a].seq < bins[b].seq })
	for i, b := range bins {
		rank := i % bm.NumRanks
		for _, pi := range perm[b.lo:b.hi] {
			dst[pi] = rank
		}
		bm.lastBins = append(bm.lastBins, Bin{Box: b.box, Count: b.hi - b.lo, Rank: rank})
	}
	return nil
}

// split cuts bin b into two halves by a planar cut along the longest axis
// of its (tight) box, reordering perm[lo:hi] so each half is contiguous.
// The bin's coordinates along the cut axis are first gathered into a column
// aligned with perm[lo:hi], so the cut reads contiguous keys instead of
// chasing perm into pos. Median cuts use a deterministic quickselect —
// O(n) per cut instead of a full sort — which partitions by the composite
// key (coordinate, index), so the resulting half-sets are identical to what
// a stable sort would give.
func (bm *BinMapper) split(b binRange, pos []geom.Vec3, perm []int) (binRange, binRange) {
	axis := b.box.LongestAxis()
	seg := perm[b.lo:b.hi]
	col := bm.keys[b.lo:b.hi]
	gatherAxis(col, seg, pos, axis)
	var cut int
	switch bm.Policy {
	case SplitMidpoint:
		mid := b.box.Center().Axis(axis)
		cut = partitionByValue(col, seg, mid)
		if cut == 0 || cut == len(seg) {
			cut = len(seg) / 2 // degenerate midpoint: fall back to median
			selectKeys(col, seg, cut)
		}
	default: // SplitMedian
		cut = len(seg) / 2
		selectKeys(col, seg, cut)
	}
	mkRange := func(lo, hi int) binRange {
		box := geom.EmptyBox()
		for _, pi := range perm[lo:hi] {
			box = box.Extend(pos[pi])
		}
		return binRange{lo: lo, hi: hi, box: box}
	}
	return mkRange(b.lo, b.lo+cut), mkRange(b.lo+cut, b.hi)
}

// gatherAxis sets col[i] to the coordinate of particle seg[i] along axis.
func gatherAxis(col []float64, seg []int, pos []geom.Vec3, axis int) {
	switch axis {
	case 0:
		for i, pi := range seg {
			col[i] = pos[pi].X
		}
	case 1:
		for i, pi := range seg {
			col[i] = pos[pi].Y
		}
	default:
		for i, pi := range seg {
			col[i] = pos[pi].Z
		}
	}
}

// cutKey is a particle's selection key: its coordinate along the cut axis and
// its index, which breaks ties between coincident particles.
type cutKey struct {
	x float64
	i int
}

// less orders keys by (coordinate, particle index) — a strict total order,
// so selection is unambiguous even with coincident particles.
func (a cutKey) less(b cutKey) bool {
	//lint:allow floatcmp exact comparison is what makes this a strict total order; a tolerance would make selection ambiguous
	if a.x != b.x {
		return a.x < b.x
	}
	return a.i < b.i
}

// selectKeys rearranges the aligned pair (col, seg) so the k smallest keys
// (col[i], seg[i]) occupy the first k positions. Iterative quickselect with
// median-of-three pivots; deterministic because the key order is total.
func selectKeys(col []float64, seg []int, k int) {
	at := func(i int) cutKey { return cutKey{col[i], seg[i]} }
	swap := func(i, j int) {
		col[i], col[j] = col[j], col[i]
		seg[i], seg[j] = seg[j], seg[i]
	}
	lo, hi := 0, len(seg) // working window [lo, hi)
	for hi-lo > 1 {
		if k <= lo || k >= hi {
			return
		}
		// Median-of-three pivot on the window.
		pivot := median3(at(lo), at(lo+(hi-lo)/2), at(hi-1))
		// Three-way partition around the pivot key.
		lt, i, gt := lo, lo, hi
		for i < gt {
			switch c := at(i); {
			case c.less(pivot):
				swap(lt, i)
				lt++
				i++
			case pivot.less(c):
				gt--
				swap(i, gt)
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

func median3(a, b, c cutKey) cutKey {
	if b.less(a) {
		a, b = b, a
	}
	if c.less(b) {
		b = c
		if b.less(a) {
			b = a
		}
	}
	return b
}

// partitionByValue moves the entries of the aligned pair (col, seg) whose
// coordinate is < v to the front and returns their count.
func partitionByValue(col []float64, seg []int, v float64) int {
	cut := 0
	for i, x := range col {
		if x < v {
			col[cut], col[i] = col[i], col[cut]
			seg[cut], seg[i] = seg[i], seg[cut]
			cut++
		}
	}
	return cut
}

var _ Mapper = (*BinMapper)(nil)

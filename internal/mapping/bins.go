package mapping

import (
	"fmt"
	"math"
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
	// Box is the tight bounding box of the bin's particles. A bound that
	// is zero where both −0 and +0 occur among the bin's extreme
	// coordinates may carry either sign: the cut treats the two zeros as
	// one coordinate, so it does not say which particle supplies the bound.
	// Every comparison the mapping and its ghost queries make reads the
	// two zeros as equal.
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

	// Per-frame scratch, reused across frames: 16 B per particle plus one
	// bit. ord[a] holds the particle ids sorted by (coordinate along axis
	// a, index), and every bin is the same window [lo, hi) of all three
	// orders. spill is the radix sort's second buffer and the stable
	// partition's spill; low marks the particles on the low side of the
	// current cut.
	ord   [3][]int32
	spill []int32
	low   []uint64
	hist  [keyDigits][keyBuckets]int32
	queue []binRange

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

// binRange is one bin of the cut: the window [lo, hi) of every axis order.
// The queue holds every bin the cut creates, in creation order; split marks
// the ones cut further, so the rest are the leaves.
type binRange struct {
	lo, hi int32
	split  bool
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
	if len(pos) > math.MaxInt32 {
		return fmt.Errorf("mapping: %d particles exceed the bin mapper's int32 ids", len(pos))
	}
	bm.lastBins = bm.lastBins[:0]
	bm.index = nil // bins change; the ghost index rebuilds lazily
	if len(pos) == 0 {
		return nil
	}
	bm.presort(pos)

	maxBins := bm.NumRanks
	if bm.Relaxed {
		maxBins = len(pos) // effectively unlimited
	}
	// Breadth-first recursive planar cut: bins split in creation order, so
	// the partition deepens level by level, as in CMT-nek's recursive
	// decomposition. Bins already at the threshold bin size (or holding a
	// single particle) are final.
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
	queue := append(bm.queue[:0], binRange{lo: 0, hi: int32(len(pos))})
	head, levelEnd, final := 0, 1, 0
	for head < len(queue) {
		if head == levelEnd {
			// Level boundary: stop deepening once the bin count has
			// reached the processor budget.
			if final+(len(queue)-head) >= maxBins {
				break
			}
			levelEnd = len(queue)
		}
		b := queue[head]
		head++
		box := bm.box(b, pos)
		if box.MaxExtent() <= bm.Threshold || b.hi-b.lo < 2 {
			final++
			continue
		}
		cut := bm.split(b, box, pos)
		queue[head-1].split = true
		queue = append(queue, binRange{lo: b.lo, hi: cut}, binRange{lo: cut, hi: b.hi})
	}
	bm.queue = queue

	// The leaves in creation order take ranks round-robin (1:1 while
	// bins ≤ R).
	for _, b := range queue {
		if b.split {
			continue
		}
		rank := len(bm.lastBins) % bm.NumRanks
		for _, pi := range bm.ord[0][b.lo:b.hi] {
			dst[pi] = rank
		}
		bm.lastBins = append(bm.lastBins, Bin{Box: bm.box(b, pos), Count: int(b.hi - b.lo), Rank: rank})
	}
	return nil
}

// split cuts bin b, whose tight box is box, by a planar cut along the
// box's longest axis and returns the cut's position in the windows. The
// bin's window of the cut axis's order is already sorted by (coordinate,
// index), so a median cut takes the middle of the window and a midpoint
// cut binary-searches it: the low half is exactly the set a selection by
// that key would give. The windows of the other two axes are stably
// partitioned by side, so every child window stays sorted.
func (bm *BinMapper) split(b binRange, box geom.AABB, pos []geom.Vec3) int32 {
	axis := box.LongestAxis()
	win := bm.ord[axis][b.lo:b.hi]
	cut := len(win) / 2
	if bm.Policy == SplitMidpoint {
		mid := box.Center().Axis(axis)
		c := sort.Search(len(win), func(i int) bool { return !(coord(pos[win[i]], axis) < mid) })
		if c > 0 && c < len(win) { // else degenerate midpoint: keep the median
			cut = c
		}
	}
	low := bm.low
	for _, id := range win[:cut] {
		low[id>>6] |= 1 << (id & 63)
	}
	for _, id := range win[cut:] {
		low[id>>6] &^= 1 << (id & 63)
	}
	for a := range bm.ord {
		if a != axis {
			partitionLow(bm.ord[a][b.lo:b.hi], bm.spill, low)
		}
	}
	return b.lo + int32(cut)
}

// partitionLow stably moves the ids of win marked in low to its front,
// spilling the others through spill. It stores every id on both sides and
// advances one cursor, so the side mark costs no branch.
func partitionLow(win, spill []int32, low []uint64) {
	l, r := 0, 0
	for _, id := range win {
		bit := int(low[id>>6] >> (id & 63) & 1)
		win[l] = id
		spill[r] = id
		l += bit
		r += 1 - bit
	}
	copy(win[l:], spill[:r])
}

// box returns the tight box of bin b, read from the ends of its windows.
func (bm *BinMapper) box(b binRange, pos []geom.Vec3) geom.AABB {
	x, y, z := bm.ord[0], bm.ord[1], bm.ord[2]
	lo, hi := b.lo, b.hi-1
	return geom.AABB{
		Lo: geom.V(pos[x[lo]].X, pos[y[lo]].Y, pos[z[lo]].Z),
		Hi: geom.V(pos[x[hi]].X, pos[y[hi]].Y, pos[z[hi]].Z),
	}
}

// The presort's radix: keys of keyDigits digits of keyBits bits each.
const (
	keyBits    = 11
	keyBuckets = 1 << keyBits
	keyDigits  = (64 + keyBits - 1) / keyBits
)

// presort sizes the scratch for len(pos) particles and sorts each axis
// order by (coordinate, index): a stable LSD radix sort of the ids, in
// index order, on the coordinate's order-preserving key. One pass over the
// frame counts every digit; a digit all keys share is skipped.
func (bm *BinMapper) presort(pos []geom.Vec3) {
	n := len(pos)
	if cap(bm.spill) < n {
		for a := range bm.ord {
			bm.ord[a] = make([]int32, n)
		}
		bm.spill = make([]int32, n)
		bm.low = make([]uint64, (n+63)/64)
	}
	bm.spill = bm.spill[:n]
	bm.low = bm.low[:(n+63)/64]
	for a := range bm.ord {
		bm.ord[a] = bm.ord[a][:n]
		bm.sortAxis(pos, a)
	}
}

// sortAxis leaves ord[axis] sorted by (coordinate along axis, index).
func (bm *BinMapper) sortAxis(pos []geom.Vec3, axis int) {
	h := &bm.hist
	*h = [keyDigits][keyBuckets]int32{}
	for _, p := range pos {
		k := sortKey(coord(p, axis))
		for d := range h {
			h[d][k>>(d*keyBits)&(keyBuckets-1)]++
		}
	}
	src, dst := bm.ord[axis], bm.spill
	for i := range src {
		src[i] = int32(i)
	}
	k0 := sortKey(coord(pos[0], axis))
	for d := range h {
		shift := d * keyBits
		counts := &h[d]
		if int(counts[k0>>shift&(keyBuckets-1)]) == len(pos) {
			continue
		}
		var sum int32
		for b, c := range counts {
			counts[b] = sum
			sum += c
		}
		for _, id := range src {
			b := sortKey(coord(pos[id], axis)) >> shift & (keyBuckets - 1)
			dst[counts[b]] = id
			counts[b]++
		}
		src, dst = dst, src
	}
	bm.ord[axis], bm.spill = src, dst
}

// sortKey maps a coordinate to an unsigned key in the same order. Adding
// +0 turns −0 into +0, so the two zeros share one key and, like under <,
// tie and fall to the index.
func sortKey(x float64) uint64 {
	b := math.Float64bits(x + 0)
	if b>>63 != 0 {
		return ^b
	}
	return b | 1<<63
}

// coord is Vec3.Axis for the presort's inner loops, small enough to inline.
func coord(p geom.Vec3, axis int) float64 {
	switch axis {
	case 0:
		return p.X
	case 1:
		return p.Y
	}
	return p.Z
}

var _ Mapper = (*BinMapper)(nil)

package mapping

import (
	"sort"

	"picpredict/internal/geom"
)

// oracleAssign is the reference bin mapping: the same breadth-first planar
// cut as BinMapper.Assign, but every cut compares particles through pos by
// index (keyLess) instead of on a gathered coordinate column. It returns
// the per-particle ranks and the bins.
func oracleAssign(bm *BinMapper, pos []geom.Vec3) ([]int, []Bin) {
	dst := make([]int, len(pos))
	if len(pos) == 0 {
		return dst, nil
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
	var done []binRange
	queue := []binRange{{lo: 0, hi: len(pos), box: geom.BoundingBox(pos), seq: seq}}
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
	for i, b := range bins {
		rank := i % bm.NumRanks
		for _, pi := range perm[b.lo:b.hi] {
			dst[pi] = rank
		}
		out = append(out, Bin{Box: b.box, Count: b.hi - b.lo, Rank: rank})
	}
	return dst, out
}

// oracleSplit is the cut of oracleAssign: selection and midpoint
// partition both read each particle's coordinate through perm.
func oracleSplit(policy SplitPolicy, b binRange, pos []geom.Vec3, perm []int) (binRange, binRange) {
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
	mkRange := func(lo, hi int) binRange {
		box := geom.EmptyBox()
		for _, pi := range perm[lo:hi] {
			box = box.Extend(pos[pi])
		}
		return binRange{lo: lo, hi: hi, box: box}
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

package mesh

import (
	"sort"

	"picpredict/internal/geom"
)

// oracleOwners is the reference recursive coordinate bisection: every
// subset is sorted along its cut axis by (centre, id) before it is cut.
// Decompose (nil weights) and DecomposeWeighted must reproduce its owners.
func oracleOwners(m *Mesh, ranks int, weights []float64) []int {
	n := m.NumElements()
	owner := make([]int, n)
	elems := make([]int, n)
	for i := range elems {
		elems[i] = i
	}
	centers := make([]geom.Vec3, n)
	for i := range centers {
		centers[i] = m.Elements.CellCenter(i)
	}
	if weights == nil {
		bisect(m, elems, centers, 0, ranks, owner)
	} else {
		bisectWeighted(m, elems, centers, weights, 0, ranks, owner)
	}
	return owner
}

// bisect assigns ranks [rank0, rank0+nranks) to the given element subset.
func bisect(m *Mesh, elems []int, centers []geom.Vec3, rank0, nranks int, owner []int) {
	if nranks == 1 || len(elems) == 0 {
		for _, e := range elems {
			owner[e] = rank0
		}
		return
	}
	// Bounding box of the subset's element centers picks the cut axis.
	box := geom.EmptyBox()
	for _, e := range elems {
		box = box.Extend(centers[e])
	}
	axis := box.LongestAxis()
	sort.Slice(elems, func(a, b int) bool {
		ca, cb := centers[elems[a]].Axis(axis), centers[elems[b]].Axis(axis)
		//lint:allow floatcmp exact comparison keeps the sort a strict total order; the index tie-break below handles equal centers
		if ca != cb {
			return ca < cb
		}
		return elems[a] < elems[b] // deterministic tie-break
	})
	loRanks := nranks / 2
	hiRanks := nranks - loRanks
	// Split elements proportionally to the rank counts so uneven rank
	// splits (odd R) still balance element counts per rank.
	cut := len(elems) * loRanks / nranks
	bisect(m, elems[:cut], centers, rank0, loRanks, owner)
	bisect(m, elems[cut:], centers, rank0+loRanks, hiRanks, owner)
}

// bisectWeighted assigns ranks [rank0, rank0+nranks) to the element subset,
// cutting where the prefix weight crosses the lo-side's proportional share.
// The sort discipline is identical to bisect, so equal-weight inputs produce
// bit-identical owners to the unweighted path.
func bisectWeighted(m *Mesh, elems []int, centers []geom.Vec3, weights []float64, rank0, nranks int, owner []int) {
	if nranks == 1 || len(elems) == 0 {
		for _, e := range elems {
			owner[e] = rank0
		}
		return
	}
	box := geom.EmptyBox()
	for _, e := range elems {
		box = box.Extend(centers[e])
	}
	axis := box.LongestAxis()
	sort.Slice(elems, func(a, b int) bool {
		ca, cb := centers[elems[a]].Axis(axis), centers[elems[b]].Axis(axis)
		//lint:allow floatcmp exact comparison keeps the sort a strict total order; the index tie-break below handles equal centers
		if ca != cb {
			return ca < cb
		}
		return elems[a] < elems[b] // deterministic tie-break
	})
	loRanks := nranks / 2
	hiRanks := nranks - loRanks
	total := 0.0
	for _, e := range elems {
		total += weights[e]
	}
	var cut int
	if total <= 0 {
		// Weightless subset: fall back to the count-proportional cut.
		cut = len(elems) * loRanks / nranks
	} else {
		// Largest prefix whose weight stays within the lo-side share — the
		// ≤ (not <) keeps equal weights on the count cut's floor semantics,
		// so the equal-weight case is bit-identical to bisect. The prefix is
		// accumulated in sorted order, so the cut is deterministic.
		target := total * float64(loRanks) / float64(nranks)
		prefix := 0.0
		for cut < len(elems) && prefix+weights[elems[cut]] <= target {
			prefix += weights[elems[cut]]
			cut++
		}
		// A single over-target element at the cut must not starve the lo
		// ranks of a subset big enough to feed them; hand it over rather
		// than recursing on an empty side. (Unreachable with equal weights:
		// a positive count cut implies the first element fits the target.)
		if cut == 0 && len(elems)*loRanks/nranks > 0 {
			cut = 1
		}
	}
	bisectWeighted(m, elems[:cut], centers, weights, rank0, loRanks, owner)
	bisectWeighted(m, elems[cut:], centers, weights, rank0+loRanks, hiRanks, owner)
}

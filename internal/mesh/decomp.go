package mesh

import (
	"fmt"
	"sort"

	"picpredict/internal/geom"
)

// Decomposition assigns every spectral element to a processor rank.
type Decomposition struct {
	// Ranks is the number of processors R.
	Ranks int
	// Owner[e] is the rank owning element e.
	Owner []int
	// ElementsOf[r] lists the elements owned by rank r, in ascending order.
	ElementsOf [][]int
}

// Decompose distributes the mesh elements across ranks processors using
// recursive coordinate bisection: the element set is recursively split with
// a planar cut along the longest axis of its bounding box, balancing element
// counts on each side proportionally to the number of ranks assigned to each
// half. The result keeps each rank's elements spatially compact, which is
// the property CMT-nek's recursive-bisection decomposition optimises for.
func Decompose(m *Mesh, ranks int) (*Decomposition, error) {
	if ranks <= 0 {
		return nil, fmt.Errorf("mesh: rank count must be positive, got %d", ranks)
	}
	n := m.NumElements()
	d := &Decomposition{
		Ranks:      ranks,
		Owner:      make([]int, n),
		ElementsOf: make([][]int, ranks),
	}
	elems := make([]int, n)
	for i := range elems {
		elems[i] = i
	}
	centers := make([]geom.Vec3, n)
	for i := range centers {
		centers[i] = m.Elements.CellCenter(i)
	}
	bisect(m, elems, centers, 0, ranks, d.Owner)
	d.finish()
	return d, nil
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

// DecomposeWeighted distributes the mesh elements across ranks with the
// same recursive coordinate bisection as Decompose, but balances cumulative
// element *weight* on each side of every cut instead of element count.
// weights[e] is the load of element e (grid work plus resident particles);
// it must be non-negative and have one entry per element. A subset whose
// total weight is zero falls back to the count-proportional cut, so the
// result degenerates to Decompose exactly when all weights are equal.
func DecomposeWeighted(m *Mesh, ranks int, weights []float64) (*Decomposition, error) {
	if ranks <= 0 {
		return nil, fmt.Errorf("mesh: rank count must be positive, got %d", ranks)
	}
	n := m.NumElements()
	if len(weights) != n {
		return nil, fmt.Errorf("mesh: weighted bisection needs %d element weights, got %d", n, len(weights))
	}
	for e, w := range weights {
		if w < 0 {
			return nil, fmt.Errorf("mesh: element %d has negative weight %g", e, w)
		}
	}
	d := &Decomposition{
		Ranks:      ranks,
		Owner:      make([]int, n),
		ElementsOf: make([][]int, ranks),
	}
	elems := make([]int, n)
	for i := range elems {
		elems[i] = i
	}
	centers := make([]geom.Vec3, n)
	for i := range centers {
		centers[i] = m.Elements.CellCenter(i)
	}
	bisectWeighted(m, elems, centers, weights, 0, ranks, d.Owner)
	d.finish()
	return d, nil
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

// FromOwner rebuilds a full Decomposition (with its per-rank element lists)
// from an explicit element→rank assignment, validating every entry. It is
// how time-varying mappings re-enter the static query machinery:
// a rebalance policy emits a new owner slice and FromOwner makes it a
// Decomposition that SphereOwners and the ghost paths can use unchanged.
func FromOwner(m *Mesh, ranks int, owner []int) (*Decomposition, error) {
	if ranks <= 0 {
		return nil, fmt.Errorf("mesh: rank count must be positive, got %d", ranks)
	}
	n := m.NumElements()
	if len(owner) != n {
		return nil, fmt.Errorf("mesh: owner assignment needs %d entries, got %d", n, len(owner))
	}
	d := &Decomposition{
		Ranks:      ranks,
		Owner:      make([]int, n),
		ElementsOf: make([][]int, ranks),
	}
	for e, r := range owner {
		if r < 0 || r >= ranks {
			return nil, fmt.Errorf("mesh: element %d assigned to rank %d outside [0,%d)", e, r, ranks)
		}
		d.Owner[e] = r
	}
	d.finish()
	return d, nil
}

// finish derives ElementsOf from Owner. Elements are visited in ascending
// order, so every rank's list comes out sorted.
func (d *Decomposition) finish() {
	for e, r := range d.Owner {
		d.ElementsOf[r] = append(d.ElementsOf[r], e)
	}
}

// RankOf returns the rank owning element e.
func (d *Decomposition) RankOf(e int) int { return d.Owner[e] }

// NumElementsOf returns how many elements rank r owns (the paper's per-
// processor N_el).
func (d *Decomposition) NumElementsOf(r int) int { return len(d.ElementsOf[r]) }

// Imbalance returns max/mean element count across ranks, a load-balance
// figure of merit for the fluid (element) workload. A perfectly balanced
// decomposition returns 1.
func (d *Decomposition) Imbalance() float64 {
	if d.Ranks == 0 {
		return 0
	}
	maxN, total := 0, 0
	for r := 0; r < d.Ranks; r++ {
		n := len(d.ElementsOf[r])
		total += n
		if n > maxN {
			maxN = n
		}
	}
	if total == 0 {
		return 0
	}
	mean := float64(total) / float64(d.Ranks)
	return float64(maxN) / mean
}

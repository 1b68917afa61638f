package mesh

import (
	"cmp"
	"fmt"
	"math"
	"slices"

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
	return bisection(m, ranks, nil)
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
	return bisection(m, ranks, weights)
}

// bisector is one recursive coordinate bisection. Every subset it visits is
// the window [lo, hi) of each of the three axis orders, so a level costs a
// pass over its windows instead of a sort per subset.
type bisector struct {
	// centre[a][e] is element e's centre coordinate along axis a.
	centre [3][]float64
	// ord[a] lists the element ids sorted by (centre[a], id), the total
	// order a per-subset sort along axis a would produce; each subset keeps
	// its window of every order in that order.
	ord [3][]int32
	// lo marks the elements of the current cut's lo side.
	lo []bool
	// tmp holds a window's hi side during a stable partition.
	tmp []int32
	// weights are the element loads of DecomposeWeighted; nil cuts on
	// element counts.
	weights []float64
	owner   []int
}

// bisection runs the recursive coordinate bisection shared by Decompose
// (nil weights) and DecomposeWeighted.
func bisection(m *Mesh, ranks int, weights []float64) (*Decomposition, error) {
	n := m.NumElements()
	if n > math.MaxInt32 {
		return nil, fmt.Errorf("mesh: %d elements exceed the bisection's 32-bit element ids", n)
	}
	d := &Decomposition{
		Ranks:      ranks,
		Owner:      make([]int, n),
		ElementsOf: make([][]int, ranks),
	}
	b := bisector{lo: make([]bool, n), tmp: make([]int32, n), weights: weights, owner: d.Owner}
	centres := make([]float64, 3*n)
	ords := make([]int32, 3*n)
	for a := range 3 {
		b.centre[a] = centres[a*n : (a+1)*n]
		b.ord[a] = ords[a*n : (a+1)*n]
	}
	for e := range n {
		c := m.Elements.CellCenter(e)
		b.centre[0][e], b.centre[1][e], b.centre[2][e] = c.X, c.Y, c.Z
	}
	for a := range 3 {
		col, ord := b.centre[a], b.ord[a]
		for e := range ord {
			ord[e] = int32(e)
		}
		slices.SortFunc(ord, func(x, y int32) int {
			switch cx, cy := col[x], col[y]; {
			case cx < cy:
				return -1
			case cx > cy:
				return 1
			}
			return cmp.Compare(x, y) // deterministic tie-break
		})
	}
	b.split(0, n, 0, ranks)
	d.finish()
	return d, nil
}

// split assigns ranks [rank0, rank0+nranks) to the subset at window
// [lo, hi) of the axis orders.
func (b *bisector) split(lo, hi, rank0, nranks int) {
	if nranks == 1 || lo == hi {
		for _, e := range b.ord[0][lo:hi] {
			b.owner[e] = rank0
		}
		return
	}
	// Bounding box of the subset's element centers picks the cut axis; each
	// axis's extremes are the ends of its window.
	first := func(a int) float64 { return b.centre[a][b.ord[a][lo]] }
	last := func(a int) float64 { return b.centre[a][b.ord[a][hi-1]] }
	box := geom.AABB{
		Lo: geom.Vec3{X: first(0), Y: first(1), Z: first(2)},
		Hi: geom.Vec3{X: last(0), Y: last(1), Z: last(2)},
	}
	axis := box.LongestAxis()
	win := b.ord[axis][lo:hi]
	loRanks := nranks / 2
	cut := b.cut(win, loRanks, nranks)
	for i, e := range win {
		b.lo[e] = i < cut
	}
	for a := range b.ord {
		if a != axis {
			b.partition(b.ord[a][lo:hi])
		}
	}
	b.split(lo, lo+cut, rank0, loRanks)
	b.split(lo+cut, hi, rank0+loRanks, nranks-loRanks)
}

// cut returns how many leading elements of win, the subset sorted along
// the cut axis, go to the loRanks side.
func (b *bisector) cut(win []int32, loRanks, nranks int) int {
	// Split elements proportionally to the rank counts so uneven rank
	// splits (odd R) still balance element counts per rank.
	countCut := len(win) * loRanks / nranks
	if b.weights == nil {
		return countCut
	}
	total := 0.0
	for _, e := range win {
		total += b.weights[e]
	}
	if total <= 0 {
		// Weightless subset: fall back to the count-proportional cut.
		return countCut
	}
	// Largest prefix whose weight stays within the lo-side share — the
	// ≤ (not <) keeps equal weights on the count cut's floor semantics, so
	// the equal-weight case is bit-identical to the count cut. The prefix
	// is accumulated in sorted order, so the cut is deterministic.
	target := total * float64(loRanks) / float64(nranks)
	cut, prefix := 0, 0.0
	for cut < len(win) && prefix+b.weights[win[cut]] <= target {
		prefix += b.weights[win[cut]]
		cut++
	}
	// A single over-target element at the cut must not starve the lo
	// ranks of a subset big enough to feed them; hand it over rather than
	// recursing on an empty side. (Unreachable with equal weights: a
	// positive count cut implies the first element fits the target.)
	if cut == 0 && countCut > 0 {
		cut = 1
	}
	return cut
}

// partition moves the lo-side elements of win to its front, keeping the
// relative order on both sides. A stable partition of a sorted window
// leaves both halves sorted, so each child sees the order a sort of its
// own subset would give.
func (b *bisector) partition(win []int32) {
	hi := b.tmp[:0]
	n := 0
	for _, e := range win {
		if b.lo[e] {
			win[n] = e
			n++
		} else {
			hi = append(hi, e)
		}
	}
	copy(win[n:], hi)
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

// finish derives ElementsOf from Owner. The lists are carved from one slab
// sized by a per-rank count, each capped at its own length so an append by
// a caller cannot overwrite the next rank's list. Elements are visited in
// ascending order, so every rank's list comes out sorted.
func (d *Decomposition) finish() {
	start := make([]int, d.Ranks+1)
	for _, r := range d.Owner {
		start[r+1]++
	}
	for r := range d.Ranks {
		start[r+1] += start[r]
	}
	slab := make([]int, len(d.Owner))
	for r := range d.ElementsOf {
		d.ElementsOf[r] = slab[start[r]:start[r]:start[r+1]]
	}
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

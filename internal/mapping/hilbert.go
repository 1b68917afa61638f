package mapping

import (
	"fmt"
	"sort"

	"picpredict/internal/geom"
	"picpredict/internal/mesh"
	"picpredict/internal/rebalance"
)

// HilbertMapper orders particles by the Hilbert index of the spectral
// element containing them and splits the ordering into R contiguous,
// equally-sized chunks (Liao et al., ref [10]: a unique global number based
// on Hilbert ordering of spectral elements, distributed in increasing order
// to balance load while preserving particle–grid locality).
type HilbertMapper struct {
	Mesh     *mesh.Mesh
	NumRanks int

	order int // Hilbert curve order covering the element grid
	// scratch
	keys []uint64
	perm []int
}

// NewHilbertMapper constructs a Hilbert-order mapper onto ranks processors.
func NewHilbertMapper(m *mesh.Mesh, ranks int) *HilbertMapper {
	return &HilbertMapper{Mesh: m, NumRanks: ranks, order: curveOrder(m)}
}

// Ranks implements Mapper.
func (hm *HilbertMapper) Ranks() int { return hm.NumRanks }

// Assign implements Mapper.
func (hm *HilbertMapper) Assign(dst []int, pos []geom.Vec3) error {
	if len(dst) != len(pos) {
		return fmt.Errorf("mapping: dst length %d != positions %d", len(dst), len(pos))
	}
	if hm.NumRanks <= 0 {
		return fmt.Errorf("mapping: hilbert mapper needs positive rank count, got %d", hm.NumRanks)
	}
	n := len(pos)
	if n == 0 {
		return nil
	}
	if cap(hm.keys) < n {
		hm.keys = make([]uint64, n)
		hm.perm = make([]int, n)
	}
	keys, perm := hm.keys[:n], hm.perm[:n]
	g := hm.Mesh.Elements
	for i, p := range pos {
		ex, ey, ez := g.Coords(hm.Mesh.Home(p))
		keys[i] = hilbertIndex3D(hm.order, uint32(ex), uint32(ey), uint32(ez))
		perm[i] = i
	}
	sort.Slice(perm, func(a, b int) bool {
		if keys[perm[a]] != keys[perm[b]] {
			return keys[perm[a]] < keys[perm[b]]
		}
		return perm[a] < perm[b]
	})
	// Equal contiguous chunks along the curve.
	for posIdx, pi := range perm {
		dst[pi] = posIdx * hm.NumRanks / n
	}
	return nil
}

// NewWeightedMapper builds the load-balanced element partitioning of Zhai et
// al. (paper ref [11], and the framework's "evaluate any new mapping
// strategy" use case) as a DynamicMapper: elements keep their particles
// (particle–grid locality preserved), but elements are distributed so every
// processor carries a similar combined load of grid points and particles.
// Elements are ordered along the Hilbert curve (preserving spatial
// compactness) and the ordered sequence is cut into R contiguous chunks of
// approximately equal weight GridLoad + Counts[e].
//
// Re-partitioning is lazy, as in the reference: the cut is made at frame 0
// and reused until rebalance.Imbalance exceeds 1.5, or 1.1 × the imbalance
// the last cut achieved when that is higher — element granularity may make
// the nominal factor unreachable for heavily clustered beds, so the trigger
// adapts to what partitioning can actually achieve (hysteresis).
func NewWeightedMapper(m *mesh.Mesh, ranks int) *DynamicMapper {
	return NewDynamicMapper(m, ranks, &weightedPolicy{})
}

// weightedPolicy is the rebalance.Policy behind NewWeightedMapper. It keeps
// state across frames, so each mapper needs its own.
type weightedPolicy struct {
	order    []int   // mesh elements in Hilbert order, built at the first cut
	achieved float64 // imbalance right after the last cut
}

// Name implements rebalance.Policy.
func (*weightedPolicy) Name() string { return "weighted" }

// Decide implements rebalance.Policy.
func (p *weightedPolicy) Decide(m *mesh.Mesh, ld rebalance.Load) ([]int, error) {
	if ld.Frame > 0 && rebalance.Imbalance(ld) <= max(1.5, 1.1*p.achieved) {
		return nil, nil
	}
	if p.order == nil {
		p.order = hilbertElementOrder(m)
	}
	total := 0.0
	for _, c := range ld.Counts {
		total += ld.GridLoad + float64(c)
	}
	target := total / float64(ld.Ranks)
	owner := make([]int, len(ld.Counts))
	rank, acc := 0, 0.0
	for _, e := range p.order {
		// Advance to the next rank when the current one is full; the last
		// rank takes whatever remains.
		if acc >= target && rank < ld.Ranks-1 {
			rank++
			acc -= target
		}
		owner[e] = rank
		acc += ld.GridLoad + float64(ld.Counts[e])
	}
	ld.Owner = owner
	p.achieved = rebalance.Imbalance(ld)
	return owner, nil
}

// curveOrder returns the order of the smallest Hilbert curve whose cube
// covers the mesh's element grid.
func curveOrder(m *mesh.Mesh) int {
	g := m.Elements
	maxDim := max(g.Nx, g.Ny, g.Nz)
	order := 1
	for (1 << order) < maxDim {
		order++
	}
	return order
}

// hilbertElementOrder returns the mesh elements sorted by 3-D Hilbert index.
func hilbertElementOrder(m *mesh.Mesh) []int {
	order := curveOrder(m)
	n := m.NumElements()
	keys := make([]uint64, n)
	idx := make([]int, n)
	for e := 0; e < n; e++ {
		x, y, z := m.Elements.Coords(e)
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

// hilbertIndex3D returns the Hilbert curve index of cell (x, y, z) on a
// 2^order × 2^order × 2^order grid using Skilling's transposition algorithm.
func hilbertIndex3D(order int, x, y, z uint32) uint64 {
	X := [3]uint32{x, y, z}
	const dims = 3
	// Inverse undo excess work (Skilling, AIP Conf. Proc. 707, 2004).
	M := uint32(1) << (order - 1)
	// Gray encode
	for q := M; q > 1; q >>= 1 {
		p := q - 1
		for i := 0; i < dims; i++ {
			if X[i]&q != 0 {
				X[0] ^= p
			} else {
				t := (X[0] ^ X[i]) & p
				X[0] ^= t
				X[i] ^= t
			}
		}
	}
	for i := 1; i < dims; i++ {
		X[i] ^= X[i-1]
	}
	t := uint32(0)
	for q := M; q > 1; q >>= 1 {
		if X[dims-1]&q != 0 {
			t ^= q - 1
		}
	}
	for i := 0; i < dims; i++ {
		X[i] ^= t
	}
	// Interleave the transposed bits into a single index, x-major.
	var h uint64
	for b := order - 1; b >= 0; b-- {
		for i := 0; i < dims; i++ {
			h = (h << 1) | uint64((X[i]>>uint(b))&1)
		}
	}
	return h
}

var (
	_ Mapper           = (*HilbertMapper)(nil)
	_ rebalance.Policy = (*weightedPolicy)(nil)
)

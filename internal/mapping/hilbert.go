package mapping

import (
	"fmt"
	"sort"

	"picpredict/internal/geom"
	"picpredict/internal/mesh"
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
	return &HilbertMapper{Mesh: m, NumRanks: ranks, order: order}
}

// Name implements Mapper.
func (*HilbertMapper) Name() string { return "hilbert" }

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

var _ Mapper = (*HilbertMapper)(nil)

// Package mesh models the spectral-element computational grid of a
// CMT-nek-style PIC application and its decomposition onto processors.
//
// The domain is tiled by Ex×Ey×Ez spectral elements; each element carries an
// N×N×N block of grid points (the intra-element grid resolution the paper
// calls N). Elements are distributed to processors with a recursive
// coordinate bisection that keeps each processor's element set spatially
// compact, minimising grid-data exchange across processor boundaries
// (paper §III-A, ref [20]).
package mesh

import (
	"fmt"

	"picpredict/internal/geom"
)

// Mesh is a spectral-element mesh over a rectangular domain.
type Mesh struct {
	// Elements partitions the domain into spectral elements.
	Elements *geom.Grid
	// N is the grid resolution within one element: each element holds
	// N×N×N grid points.
	N int
}

// New constructs a mesh with ex×ey×ez spectral elements over domain, each
// with n×n×n internal grid points.
func New(domain geom.AABB, ex, ey, ez, n int) (*Mesh, error) {
	if n <= 0 {
		return nil, fmt.Errorf("mesh: grid resolution N must be positive, got %d", n)
	}
	g, err := geom.NewGrid(domain, ex, ey, ez)
	if err != nil {
		return nil, fmt.Errorf("mesh: %w", err)
	}
	return &Mesh{Elements: g, N: n}, nil
}

// NumElements returns the total spectral element count (the paper's N_el
// summed over all processors).
func (m *Mesh) NumElements() int { return m.Elements.Len() }

// NumGridPoints returns the total number of grid points in the mesh.
func (m *Mesh) NumGridPoints() int { return m.NumElements() * m.N * m.N * m.N }

// Domain returns the mesh bounding box.
func (m *Mesh) Domain() geom.AABB { return m.Elements.Domain }

// ElementAt returns the id of the element containing p, or -1 if p is
// outside the closed domain or has a NaN coordinate.
func (m *Mesh) ElementAt(p geom.Vec3) int { return m.Elements.Locate(p) }

// Home returns the element a particle at p belongs to: the element
// containing p after clamping it onto the closed domain. It is never
// negative. A position marginally outside the domain (trace round-off at a
// reflecting wall) belongs to the element at the wall, and a NaN coordinate
// clamps onto the low face. The element mappers, the solver's element
// tiling and the interpolator all take a particle's element from Home.
func (m *Mesh) Home(p geom.Vec3) int { return m.Elements.LocateClamped(p) }

// ElementBox returns the bounding box of element id.
func (m *Mesh) ElementBox(id int) geom.AABB { return m.Elements.CellBox(id) }

// ElementsInSphere appends to dst the ids of all elements whose box
// intersects the ball (c, radius) and returns the extended slice. This is
// the spatial query behind ghost-particle creation: the ball is a particle's
// projection-filter support.
func (m *Mesh) ElementsInSphere(dst []int, c geom.Vec3, radius float64) []int {
	return m.Elements.CellsInSphere(dst, c, radius)
}

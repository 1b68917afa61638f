package geom

import (
	"math"
	"testing"
)

// parentAxisCell is the per-axis arithmetic Locate used before the high face
// was also tested against Domain.Hi. It is the oracle for every point it
// places in a real cell: the current Locate must place it identically.
func parentAxisCell(x, lo, d float64, n int) (int, bool) {
	if d <= 0 {
		return 0, n == 1
	}
	t := (x - lo) / d
	if t < 0 {
		return 0, false
	}
	c := int(t)
	if c >= n {
		if x <= lo+d*float64(n) {
			return n - 1, true
		}
		return 0, false
	}
	return c, true
}

// parentLocate is Locate under parentAxisCell; ok is false unless every
// axis found a cell inside [0, n) (int of a NaN or huge t is
// implementation-specific, so such "cells" are not cells).
func parentLocate(g *Grid, p Vec3) (int, bool) {
	i, oki := parentAxisCell(p.X, g.Domain.Lo.X, g.dx, g.Nx)
	j, okj := parentAxisCell(p.Y, g.Domain.Lo.Y, g.dy, g.Ny)
	k, okk := parentAxisCell(p.Z, g.Domain.Lo.Z, g.dz, g.Nz)
	ok := oki && okj && okk &&
		i >= 0 && i < g.Nx && j >= 0 && j < g.Ny && k >= 0 && k < g.Nz
	return g.Index(i, j, k), ok
}

// FuzzGridLocate checks the home-element contract on arbitrary grids and
// points: either NewGrid rejects the grid, or every point clamped onto the
// closed domain has a cell, LocateClamped equals Locate of the clamped
// point, and wherever the parent arithmetic found a cell Locate returns
// that same cell.
func FuzzGridLocate(f *testing.F) {
	inf, nan := math.Inf(1), math.NaN()
	type seed struct {
		lx, hx, ly, hy, lz, hz float64
		nx, ny, nz             uint16
		px, py, pz             float64
	}
	for _, s := range []seed{
		{0, 1, 0, 1, 0, 0.01, 49, 49, 1, 1, 0.5, 0.005},          // unit extent, 49 cells: Hi rounds past lo+d·n
		{0, 0.01, 0, 0.01, 0, 0.01, 73, 73, 1, 0.01, 0.01, 0.01}, // extent 0.01, 73 cells
		{0, 1, 0, 1, 0, 1, 128, 128, 1, 1.2, -0.3, 0.5},          // clamped from outside
		{0, 1, 0, 1, 0, 1, 4, 4, 4, nan, 0.5, 0.5},
		{0, 1, 0, 1, 0, 1, 4, 4, 4, inf, -inf, 0.5},
		{-2, 2, -2, 2, -2, 2, 5, 3, 4, 2, -2, 0},
		{0, 0, 0, 1, 0, 1, 2, 2, 2, 0, 0.5, 0.5}, // flat axis with two cells: rejected
		{0, inf, 0, 1, 0, 1, 2, 2, 2, 1, 0.5, 0.5},
		{-1e308, 1e308, 0, 1, 0, 1, 2, 2, 2, 0, 0.5, 0.5}, // extent overflows
		{0, 1, 0, 1, 0, 1, 3, 3, 3, 1e300, -1e300, 1},
	} {
		f.Add(s.lx, s.hx, s.ly, s.hy, s.lz, s.hz, s.nx, s.ny, s.nz, s.px, s.py, s.pz)
	}
	f.Fuzz(func(t *testing.T, lx, hx, ly, hy, lz, hz float64, nx, ny, nz uint16, px, py, pz float64) {
		dom := AABB{Lo: V(lx, ly, lz), Hi: V(hx, hy, hz)}
		g, err := NewGrid(dom, int(nx), int(ny), int(nz))
		if err != nil {
			return
		}
		p := V(px, py, pz)
		q := p.Clamp(dom.Lo, dom.Hi)
		id := g.Locate(q)
		if id < 0 || id >= g.Len() {
			t.Fatalf("grid %v %d×%d×%d: Locate(%v clamped to %v) = %d, want a cell in [0, %d)",
				dom, nx, ny, nz, p, q, id, g.Len())
		}
		if got := g.LocateClamped(p); got != id {
			t.Fatalf("grid %v %d×%d×%d: LocateClamped(%v) = %d, Locate of the clamped point = %d",
				dom, nx, ny, nz, p, got, id)
		}
		for _, pt := range []Vec3{p, q} {
			if want, ok := parentLocate(g, pt); ok {
				if got := g.Locate(pt); got != want {
					t.Fatalf("grid %v %d×%d×%d: Locate(%v) = %d, parent arithmetic found %d",
						dom, nx, ny, nz, pt, got, want)
				}
			}
		}
	})
}

package geom

import (
	"math"
	"math/rand"
	"testing"
)

func mustGrid(t *testing.T, d AABB, nx, ny, nz int) *Grid {
	t.Helper()
	g, err := NewGrid(d, nx, ny, nz)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestNewGridValidation(t *testing.T) {
	d := Box(V(0, 0, 0), V(1, 1, 1))
	if _, err := NewGrid(d, 0, 1, 1); err == nil {
		t.Error("zero dimension accepted")
	}
	if _, err := NewGrid(d, 1, -2, 1); err == nil {
		t.Error("negative dimension accepted")
	}
	if _, err := NewGrid(EmptyBox(), 1, 1, 1); err == nil {
		t.Error("empty domain accepted")
	}
	for _, bad := range []AABB{
		{Lo: V(math.NaN(), 0, 0), Hi: V(1, 1, 1)},
		{Lo: V(0, 0, 0), Hi: V(1, math.Inf(1), 1)},
		{Lo: V(-1e308, 0, 0), Hi: V(1e308, 1, 1)}, // finite bounds, infinite extent
	} {
		if _, err := NewGrid(bad, 1, 1, 1); err == nil {
			t.Errorf("non-finite domain %v accepted", bad)
		}
	}
	if _, err := NewGrid(Box(V(0, 0, 0), V(1, 1, 0)), 2, 2, 2); err == nil {
		t.Error("flat axis with two cells accepted")
	}
	if _, err := NewGrid(Box(V(0, 0, 0), V(1, 1, 0)), 2, 2, 1); err != nil {
		t.Errorf("flat axis with one cell rejected: %v", err)
	}
}

// TestGridLocateHighFace: the high face belongs to the last cell for every
// cell count, including those (49 on a unit extent, 73 on 0.01) where
// lo + d·n rounds below Hi, and a point clamped from beyond it stays there.
func TestGridLocateHighFace(t *testing.T) {
	for _, ext := range []float64{1, 0.01} {
		for n := 1; n <= 1024; n++ {
			g := mustGrid(t, Box(V(0, 0, 0), V(ext, ext, ext)), n, 1, 1)
			if got := g.Locate(V(ext, 0, 0)); got != n-1 {
				t.Fatalf("extent %g, %d cells: Locate(Hi) = %d, want %d", ext, n, got, n-1)
			}
			if got := g.LocateClamped(V(1.2*ext, 0, 0)); got != n-1 {
				t.Fatalf("extent %g, %d cells: LocateClamped(1.2·Hi) = %d, want %d", ext, n, got, n-1)
			}
		}
	}
}

func TestGridIndexCoordsRoundTrip(t *testing.T) {
	g := mustGrid(t, Box(V(0, 0, 0), V(1, 1, 1)), 4, 5, 6)
	if g.Len() != 120 {
		t.Fatalf("Len = %d", g.Len())
	}
	for id := 0; id < g.Len(); id++ {
		i, j, k := g.Coords(id)
		if got := g.Index(i, j, k); got != id {
			t.Fatalf("round trip %d -> (%d,%d,%d) -> %d", id, i, j, k, got)
		}
	}
}

func TestGridLocate(t *testing.T) {
	g := mustGrid(t, Box(V(0, 0, 0), V(4, 4, 4)), 4, 4, 4)
	cases := []struct {
		p    Vec3
		want int
	}{
		{V(0.5, 0.5, 0.5), g.Index(0, 0, 0)},
		{V(3.5, 3.5, 3.5), g.Index(3, 3, 3)},
		{V(0, 0, 0), g.Index(0, 0, 0)},
		{V(4, 4, 4), g.Index(3, 3, 3)}, // exact high edge maps to last cell
		{V(1, 2, 3), g.Index(1, 2, 3)},
		{V(-0.1, 1, 1), -1},
		{V(4.1, 1, 1), -1},
		{V(math.NaN(), 1, 1), -1},
		{V(1, math.Inf(1), 1), -1},
		{V(1, 1, 1e300), -1}, // t overflows int
	}
	for _, c := range cases {
		if got := g.Locate(c.p); got != c.want {
			t.Errorf("Locate(%v) = %d, want %d", c.p, got, c.want)
		}
	}
}

func TestGridCellBoxTilesDomain(t *testing.T) {
	g := mustGrid(t, Box(V(-1, 0, 2), V(3, 2, 4)), 3, 2, 2)
	var total float64
	for id := 0; id < g.Len(); id++ {
		total += g.CellBox(id).Volume()
	}
	want := g.Domain.Volume()
	if d := total - want; d > 1e-9 || d < -1e-9 {
		t.Errorf("cells volume %v != domain volume %v", total, want)
	}
}

func TestGridLocateConsistentWithCellBox(t *testing.T) {
	g := mustGrid(t, Box(V(-2, -2, -2), V(2, 2, 2)), 5, 3, 4)
	rng := rand.New(rand.NewSource(7))
	for n := 0; n < 500; n++ {
		p := V(rng.Float64()*4-2, rng.Float64()*4-2, rng.Float64()*4-2)
		id := g.Locate(p)
		if id < 0 {
			t.Fatalf("Locate(%v) = -1 for in-domain point", p)
		}
		if !g.CellBox(id).ContainsClosed(p) {
			t.Fatalf("cell %d box %v does not contain %v", id, g.CellBox(id), p)
		}
	}
}

func TestGridCellsInSphere(t *testing.T) {
	g := mustGrid(t, Box(V(0, 0, 0), V(8, 8, 8)), 8, 8, 8)
	// Small ball entirely inside one cell.
	ids := g.CellsInSphere(nil, V(0.5, 0.5, 0.5), 0.2)
	if len(ids) != 1 || ids[0] != g.Index(0, 0, 0) {
		t.Errorf("small ball ids = %v", ids)
	}
	// Ball centred on a vertex touches 8 cells.
	ids = g.CellsInSphere(nil, V(4, 4, 4), 0.4)
	if len(ids) != 8 {
		t.Errorf("vertex ball found %d cells, want 8", len(ids))
	}
	// Each returned cell really intersects.
	for _, id := range ids {
		if !g.CellBox(id).IntersectsSphere(V(4, 4, 4), 0.4) {
			t.Errorf("cell %d reported but does not intersect", id)
		}
	}
	// Exhaustive check against brute force.
	c, r := V(2.3, 5.1, 6.7), 1.9
	got := map[int]bool{}
	for _, id := range g.CellsInSphere(nil, c, r) {
		got[id] = true
	}
	for id := 0; id < g.Len(); id++ {
		want := g.CellBox(id).IntersectsSphere(c, r)
		if got[id] != want {
			t.Errorf("cell %d: CellsInSphere=%v brute=%v", id, got[id], want)
		}
	}
	// Ball outside the domain near the edge still clamps safely.
	ids = g.CellsInSphere(nil, V(-1, -1, -1), 0.5)
	if len(ids) != 0 {
		t.Errorf("outside ball returned %v", ids)
	}
	if got := g.CellsInSphere(nil, V(1, 1, 1), -1); len(got) != 0 {
		t.Errorf("negative radius returned %v", got)
	}
}

func TestGridFlatAxis(t *testing.T) {
	// Quasi-2D Hele-Shaw style grid: single cell in z.
	g := mustGrid(t, Box(V(0, 0, 0), V(4, 4, 0.1)), 4, 4, 1)
	id := g.Locate(V(1.5, 2.5, 0.05))
	if id != g.Index(1, 2, 0) {
		t.Errorf("Locate = %d", id)
	}
}

func TestGridCellSizeAndCenter(t *testing.T) {
	g := mustGrid(t, Box(V(0, 0, 0), V(4, 2, 1)), 4, 2, 1)
	if got := g.CellSize(); got != V(1, 1, 1) {
		t.Errorf("CellSize = %v", got)
	}
	if got := g.CellCenter(g.Index(2, 1, 0)); got != V(2.5, 1.5, 0.5) {
		t.Errorf("CellCenter = %v", got)
	}
	// CellCenter agrees with CellBox.Center for every cell.
	for id := 0; id < g.Len(); id++ {
		if g.CellCenter(id) != g.CellBox(id).Center() {
			t.Fatalf("centre mismatch at cell %d", id)
		}
	}
}

// TestAxisDist2MatchesCellBox: AxisDist2 over a cell's CellBox bounds gives
// exactly the AxisDist2Table entry for that cell, so a caller that keeps
// CellBox bounds in its own per-axis tables reproduces CellsInSphere's
// membership arithmetic bit for bit.
func TestAxisDist2MatchesCellBox(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		lo := V(rng.Float64()-0.5, rng.Float64()-0.5, rng.Float64()-0.5)
		g := mustGrid(t, Box(lo, lo.Add(V(0.1+rng.Float64(), 0.1+rng.Float64(), 0.1+rng.Float64()))),
			1+rng.Intn(50), 1+rng.Intn(50), 1+rng.Intn(50))
		n := [3]int{g.Nx, g.Ny, g.Nz}
		for a := 0; a < 3; a++ {
			x := g.Domain.Lo.Axis(a) + (rng.Float64()*1.2-0.1)*g.Domain.Extent().Axis(a)
			table := g.AxisDist2Table(nil, a, x, 0, n[a]-1)
			for c, want := range table {
				var ijk [3]int
				ijk[a] = c
				box := g.CellBox(g.Index(ijk[0], ijk[1], ijk[2]))
				if got := AxisDist2(x, box.Lo.Axis(a), box.Hi.Axis(a)); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("grid %d×%d×%d axis %d cell %d x=%v: AxisDist2 over CellBox %v, table %v",
						g.Nx, g.Ny, g.Nz, a, c, x, got, want)
				}
			}
		}
	}
}

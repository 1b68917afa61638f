package geom

import "fmt"

// Grid describes a regular Cartesian partition of a box into Nx×Ny×Nz cells.
// It supplies the index arithmetic used both by the spectral-element mesh
// (cells are elements) and by the intra-element grid points.
type Grid struct {
	Domain     AABB
	Nx, Ny, Nz int
	// cell size, cached
	dx, dy, dz float64
}

// NewGrid constructs a grid over domain with the given cell counts. The
// bounds and extent must be finite, and an axis whose cells have zero size
// (a flat axis) may hold only one cell, so that every point of the closed
// domain lies in a cell.
func NewGrid(domain AABB, nx, ny, nz int) (*Grid, error) {
	if nx <= 0 || ny <= 0 || nz <= 0 {
		return nil, fmt.Errorf("geom: grid dimensions must be positive, got %d×%d×%d", nx, ny, nz)
	}
	e := domain.Extent()
	if !domain.Lo.IsFinite() || !domain.Hi.IsFinite() || !e.IsFinite() {
		return nil, fmt.Errorf("geom: grid domain %v is not finite", domain)
	}
	if domain.Empty() {
		return nil, fmt.Errorf("geom: grid domain %v is empty", domain)
	}
	g := &Grid{
		Domain: domain,
		Nx:     nx, Ny: ny, Nz: nz,
		dx: e.X / float64(nx),
		dy: e.Y / float64(ny),
		dz: e.Z / float64(nz),
	}
	for a, n := range [3]int{nx, ny, nz} {
		if n > 1 && !(g.CellSize().Axis(a) > 0) {
			return nil, fmt.Errorf("geom: grid axis %d of domain %v is flat but has %d cells", a, domain, n)
		}
	}
	return g, nil
}

// Len returns the total number of cells.
func (g *Grid) Len() int { return g.Nx * g.Ny * g.Nz }

// CellSize returns the dimensions of a single cell.
func (g *Grid) CellSize() Vec3 { return Vec3{g.dx, g.dy, g.dz} }

// Index converts (i, j, k) cell coordinates to a flat cell id using
// x-fastest ordering.
func (g *Grid) Index(i, j, k int) int { return i + g.Nx*(j+g.Ny*k) }

// Coords converts a flat cell id back to (i, j, k) cell coordinates.
func (g *Grid) Coords(id int) (i, j, k int) {
	i = id % g.Nx
	j = (id / g.Nx) % g.Ny
	k = id / (g.Nx * g.Ny)
	return
}

// Locate returns the flat id of the cell containing p, or -1 when p lies
// outside the closed grid domain or has a NaN coordinate. Points on the
// high face belong to the last cell along that axis, so every point of the
// closed domain has a cell. Along a flat axis (zero extent, one cell) every
// coordinate lies in the single cell.
func (g *Grid) Locate(p Vec3) int {
	i, ok := axisCell(p.X, g.Domain.Lo.X, g.Domain.Hi.X, g.dx, g.Nx)
	if !ok {
		return -1
	}
	j, ok := axisCell(p.Y, g.Domain.Lo.Y, g.Domain.Hi.Y, g.dy, g.Ny)
	if !ok {
		return -1
	}
	k, ok := axisCell(p.Z, g.Domain.Lo.Z, g.Domain.Hi.Z, g.dz, g.Nz)
	if !ok {
		return -1
	}
	return g.Index(i, j, k)
}

// LocateClamped returns the flat id of the cell containing p clamped onto
// the closed domain, Locate(p.Clamp(Domain.Lo, Domain.Hi)), without
// building the clamped point. It is never negative on a grid NewGrid
// accepts. A NaN coordinate clamps onto the low face, as Clamp maps it.
func (g *Grid) LocateClamped(p Vec3) int {
	return g.Index(
		clampedAxisCell(p.X, g.Domain.Lo.X, g.Domain.Hi.X, g.dx, g.Nx),
		clampedAxisCell(p.Y, g.Domain.Lo.Y, g.Domain.Hi.Y, g.dy, g.Ny),
		clampedAxisCell(p.Z, g.Domain.Lo.Z, g.Domain.Hi.Z, g.dz, g.Nz))
}

// axisCell locates x along one axis of n cells of size d starting at lo.
func axisCell(x, lo, hi, d float64, n int) (int, bool) {
	if d <= 0 {
		return 0, n == 1 // degenerate flat axis: single cell
	}
	t := (x - lo) / d
	if !(t >= 0) {
		return 0, false // below the low face, or NaN
	}
	if t < float64(n) {
		return int(t), true
	}
	// On (or numerically past) the high face. lo + d·n can round below hi,
	// so the face itself is accepted as well.
	if x <= hi || x <= lo+d*float64(n) {
		return n - 1, true
	}
	return 0, false
}

// clampedAxisCell is axisCell of x clamped into [lo, hi], with Clamp's
// treatment of NaN (onto lo). The clamp keeps t finite, so the int
// conversion never overflows.
func clampedAxisCell(x, lo, hi, d float64, n int) int {
	if !(x > lo) {
		return 0
	}
	if x > hi {
		x = hi
	}
	if t := (x - lo) / d; t < float64(n) {
		return int(t)
	}
	return n - 1
}

// CellBox returns the AABB of cell id.
func (g *Grid) CellBox(id int) AABB {
	i, j, k := g.Coords(id)
	lo := Vec3{
		g.Domain.Lo.X + float64(i)*g.dx,
		g.Domain.Lo.Y + float64(j)*g.dy,
		g.Domain.Lo.Z + float64(k)*g.dz,
	}
	return AABB{Lo: lo, Hi: lo.Add(Vec3{g.dx, g.dy, g.dz})}
}

// CellCenter returns the centre point of cell id.
func (g *Grid) CellCenter(id int) Vec3 {
	i, j, k := g.Coords(id)
	return Vec3{
		g.Domain.Lo.X + (float64(i)+0.5)*g.dx,
		g.Domain.Lo.Y + (float64(j)+0.5)*g.dy,
		g.Domain.Lo.Z + (float64(k)+0.5)*g.dz,
	}
}

// CellsInSphere appends to dst the ids of every cell whose box intersects
// the ball (c, radius), and returns the extended slice. The search visits
// only the cells inside the ball's bounding box, so cost scales with the
// ball volume rather than the grid size. Per-axis squared distances to the
// candidate cell intervals are computed once per axis, keeping the per-cell
// work to two additions and a compare — this query runs once per particle
// per step in both projection and ghost generation.
func (g *Grid) CellsInSphere(dst []int, c Vec3, radius float64) []int {
	if radius < 0 {
		return dst
	}
	ilo, jlo, klo := g.clampCoords(c.Sub(Vec3{radius, radius, radius}))
	ihi, jhi, khi := g.clampCoords(c.Add(Vec3{radius, radius, radius}))
	r2 := radius * radius
	// Small fixed buffers keep the common case (a filter ball spanning a
	// few cells) allocation-free.
	var bx, by, bz [16]float64
	dx2 := g.axisDist2s(bx[:0], c.X, g.Domain.Lo.X, g.dx, ilo, ihi)
	dy2 := g.axisDist2s(by[:0], c.Y, g.Domain.Lo.Y, g.dy, jlo, jhi)
	dz2 := g.axisDist2s(bz[:0], c.Z, g.Domain.Lo.Z, g.dz, klo, khi)
	for k := klo; k <= khi; k++ {
		dkz := dz2[k-klo]
		for j := jlo; j <= jhi; j++ {
			djk := dy2[j-jlo] + dkz
			if djk > r2 {
				continue
			}
			base := g.Nx * (j + g.Ny*k)
			for i := ilo; i <= ihi; i++ {
				if dx2[i-ilo]+djk <= r2 {
					dst = append(dst, base+i)
				}
			}
		}
	}
	return dst
}

// axisDist2s appends to buf the squared distance from x to each cell
// interval [lo+i·d, lo+(i+1)·d] for i in [ilo, ihi].
func (g *Grid) axisDist2s(buf []float64, x, lo, d float64, ilo, ihi int) []float64 {
	for i := ilo; i <= ihi; i++ {
		cellLo := lo + float64(i)*d
		buf = append(buf, axisDist2(x, cellLo, cellLo+d))
	}
	return buf
}

// ClampCoords returns the (i, j, k) coordinates of LocateClamped(p): the
// cell containing p, with each axis clamped into the valid [0, N-1] range.
// This is the exact range arithmetic CellsInSphere applies to the two
// corners of a ball's bounding box; it is exported so batched (tiled)
// queries can reproduce the scalar candidate window bit-for-bit per
// particle.
func (g *Grid) ClampCoords(p Vec3) (i, j, k int) { return g.clampCoords(p) }

// AxisDist2Table appends to buf the squared distance from coordinate x to
// each cell interval [ilo, ihi] along the given axis (0 = x, 1 = y, 2 = z).
// The entries are exactly the per-axis tables CellsInSphere builds, so a
// batched query summing them reproduces the scalar membership verdict
// bit-for-bit.
func (g *Grid) AxisDist2Table(buf []float64, axis int, x float64, ilo, ihi int) []float64 {
	switch axis {
	case 0:
		return g.axisDist2s(buf, x, g.Domain.Lo.X, g.dx, ilo, ihi)
	case 1:
		return g.axisDist2s(buf, x, g.Domain.Lo.Y, g.dy, ilo, ihi)
	default:
		return g.axisDist2s(buf, x, g.Domain.Lo.Z, g.dz, ilo, ihi)
	}
}

func (g *Grid) clampCoords(p Vec3) (i, j, k int) {
	i = clampedAxisCell(p.X, g.Domain.Lo.X, g.Domain.Hi.X, g.dx, g.Nx)
	j = clampedAxisCell(p.Y, g.Domain.Lo.Y, g.Domain.Hi.Y, g.dy, g.Ny)
	k = clampedAxisCell(p.Z, g.Domain.Lo.Z, g.Domain.Hi.Z, g.dz, g.Nz)
	return
}

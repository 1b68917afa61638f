package geom

import (
	"fmt"
	"math"
)

// AABB is an axis-aligned bounding box, closed on the low side and open on
// the high side for point-membership purposes ([Lo, Hi)), which makes a set
// of boxes tiling a domain partition every point exactly once.
type AABB struct {
	Lo, Hi Vec3
}

// Box constructs an AABB from two corner points, normalising the ordering.
func Box(a, b Vec3) AABB { return AABB{Lo: a.Min(b), Hi: a.Max(b)} }

// EmptyBox returns a box that contains no points and acts as the identity
// for Union/Extend.
func EmptyBox() AABB {
	inf := math.Inf(1)
	return AABB{Lo: Vec3{inf, inf, inf}, Hi: Vec3{-inf, -inf, -inf}}
}

// Empty reports whether the box contains no points.
func (b AABB) Empty() bool { return b.Lo.X > b.Hi.X || b.Lo.Y > b.Hi.Y || b.Lo.Z > b.Hi.Z }

// Contains reports whether p lies inside the half-open box [Lo, Hi).
func (b AABB) Contains(p Vec3) bool {
	return p.X >= b.Lo.X && p.X < b.Hi.X &&
		p.Y >= b.Lo.Y && p.Y < b.Hi.Y &&
		p.Z >= b.Lo.Z && p.Z < b.Hi.Z
}

// ContainsClosed reports whether p lies inside the closed box [Lo, Hi].
func (b AABB) ContainsClosed(p Vec3) bool {
	return p.X >= b.Lo.X && p.X <= b.Hi.X &&
		p.Y >= b.Lo.Y && p.Y <= b.Hi.Y &&
		p.Z >= b.Lo.Z && p.Z <= b.Hi.Z
}

// Extent returns the box dimensions (Hi - Lo); negative components are
// reported as zero for empty boxes.
func (b AABB) Extent() Vec3 {
	e := b.Hi.Sub(b.Lo)
	return e.Max(Vec3{})
}

// Center returns the geometric center of the box.
func (b AABB) Center() Vec3 { return b.Lo.Add(b.Hi).Scale(0.5) }

// Volume returns the volume of the box (zero for empty boxes).
func (b AABB) Volume() float64 {
	e := b.Extent()
	return e.X * e.Y * e.Z
}

// LongestAxis returns the axis (0, 1, or 2) along which the box is largest.
// Ties resolve to the lowest axis index.
func (b AABB) LongestAxis() int {
	e := b.Extent()
	axis := 0
	if e.Y > e.X {
		axis = 1
	}
	if e.Z > e.Axis(axis) {
		axis = 2
	}
	return axis
}

// MaxExtent returns the length of the box along its longest axis.
func (b AABB) MaxExtent() float64 { return b.Extent().Axis(b.LongestAxis()) }

// Extend returns the smallest box containing both b and the point p.
func (b AABB) Extend(p Vec3) AABB { return AABB{Lo: b.Lo.Min(p), Hi: b.Hi.Max(p)} }

// TileBounds returns the bounding box of the selected positions, skipping
// any with a NaN or infinite coordinate; a selection with no finite
// position yields the empty box. It is the Extend fold written as one
// branch-lean pass because the tiled query paths call it once per tile per
// frame.
func TileBounds(pos []Vec3, ids []int32) AABB {
	b := EmptyBox()
	lo, hi := b.Lo, b.Hi
	for _, i := range ids {
		p := pos[i]
		if !p.IsFinite() {
			continue
		}
		if p.X < lo.X {
			lo.X = p.X
		}
		if p.X > hi.X {
			hi.X = p.X
		}
		if p.Y < lo.Y {
			lo.Y = p.Y
		}
		if p.Y > hi.Y {
			hi.Y = p.Y
		}
		if p.Z < lo.Z {
			lo.Z = p.Z
		}
		if p.Z > hi.Z {
			hi.Z = p.Z
		}
	}
	return AABB{Lo: lo, Hi: hi}
}

// Union returns the smallest box containing both b and c.
func (b AABB) Union(c AABB) AABB {
	if b.Empty() {
		return c
	}
	if c.Empty() {
		return b
	}
	return AABB{Lo: b.Lo.Min(c.Lo), Hi: b.Hi.Max(c.Hi)}
}

// Intersects reports whether b and c overlap (on closed boxes).
func (b AABB) Intersects(c AABB) bool {
	if b.Empty() || c.Empty() {
		return false
	}
	return b.Lo.X <= c.Hi.X && c.Lo.X <= b.Hi.X &&
		b.Lo.Y <= c.Hi.Y && c.Lo.Y <= b.Hi.Y &&
		b.Lo.Z <= c.Hi.Z && c.Lo.Z <= b.Hi.Z
}

// IntersectsSphere reports whether the closed box overlaps the ball of the
// given radius centred at c. It is used to find the processors whose grid
// domain a particle's projection filter touches (ghost-particle creation).
func (b AABB) IntersectsSphere(c Vec3, radius float64) bool {
	if b.Empty() || radius < 0 {
		return false
	}
	d2 := axisDist2(c.X, b.Lo.X, b.Hi.X) + axisDist2(c.Y, b.Lo.Y, b.Hi.Y) + axisDist2(c.Z, b.Lo.Z, b.Hi.Z)
	return d2 <= radius*radius
}

// Outset returns the box grown by r on every side, with each bound nudged
// one ulp further outward. The nudge makes the result conservative: it
// contains the exact (real-arithmetic) inflation even though r is applied
// in floating point, so Outset boxes are safe prefilters — a ball of radius
// r centred anywhere inside b is fully contained in b.Outset(r). Empty
// boxes stay empty.
func (b AABB) Outset(r float64) AABB {
	if b.Empty() {
		return b
	}
	neg, pos := math.Inf(-1), math.Inf(1)
	return AABB{
		Lo: Vec3{
			math.Nextafter(b.Lo.X-r, neg),
			math.Nextafter(b.Lo.Y-r, neg),
			math.Nextafter(b.Lo.Z-r, neg),
		},
		Hi: Vec3{
			math.Nextafter(b.Hi.X+r, pos),
			math.Nextafter(b.Hi.Y+r, pos),
			math.Nextafter(b.Hi.Z+r, pos),
		},
	}
}

// AxisDist2 returns the squared distance from x to the interval [lo, hi],
// zero inside it: the per-cell entry of Grid.AxisDist2Table, for callers
// that keep a grid's cell bounds (CellBox) in tables of their own.
func AxisDist2(x, lo, hi float64) float64 { return axisDist2(x, lo, hi) }

// axisDist2 is the squared distance from x to the interval [lo, hi].
func axisDist2(x, lo, hi float64) float64 {
	if x < lo {
		d := lo - x
		return d * d
	}
	if x > hi {
		d := x - hi
		return d * d
	}
	return 0
}

// SplitAt cuts the box with a plane orthogonal to axis at coordinate x and
// returns the low and high halves. The caller must ensure Lo <= x <= Hi.
func (b AABB) SplitAt(axis int, x float64) (lo, hi AABB) {
	lo, hi = b, b
	lo.Hi = lo.Hi.WithAxis(axis, x)
	hi.Lo = hi.Lo.WithAxis(axis, x)
	return lo, hi
}

// String implements fmt.Stringer.
func (b AABB) String() string { return fmt.Sprintf("[%v .. %v]", b.Lo, b.Hi) }

// BoundingBox returns the tight AABB of a set of points, or an empty box for
// an empty set.
func BoundingBox(pts []Vec3) AABB {
	box := EmptyBox()
	for _, p := range pts {
		box = box.Extend(p)
	}
	return box
}

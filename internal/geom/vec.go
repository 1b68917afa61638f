// Package geom provides the small amount of 3-D geometry shared by the mesh,
// particle, mapping, and workload-generation packages: vectors, axis-aligned
// boxes, and index arithmetic for regular grids.
package geom

import (
	"fmt"
	"math"
)

// Vec3 is a point or displacement in three-dimensional space.
type Vec3 struct {
	X, Y, Z float64
}

// V is shorthand for constructing a Vec3.
func V(x, y, z float64) Vec3 { return Vec3{x, y, z} }

// Add returns v + w.
func (v Vec3) Add(w Vec3) Vec3 { return Vec3{v.X + w.X, v.Y + w.Y, v.Z + w.Z} }

// Sub returns v - w.
func (v Vec3) Sub(w Vec3) Vec3 { return Vec3{v.X - w.X, v.Y - w.Y, v.Z - w.Z} }

// Scale returns v scaled by s.
func (v Vec3) Scale(s float64) Vec3 { return Vec3{v.X * s, v.Y * s, v.Z * s} }

// Mul returns the component-wise product of v and w.
func (v Vec3) Mul(w Vec3) Vec3 { return Vec3{v.X * w.X, v.Y * w.Y, v.Z * w.Z} }

// Dot returns the dot product of v and w.
func (v Vec3) Dot(w Vec3) float64 { return v.X*w.X + v.Y*w.Y + v.Z*w.Z }

// Norm returns the Euclidean length of v.
func (v Vec3) Norm() float64 { return math.Sqrt(v.Dot(v)) }

// Norm2 returns the squared Euclidean length of v.
func (v Vec3) Norm2() float64 { return v.Dot(v) }

// Dist returns the Euclidean distance between v and w.
func (v Vec3) Dist(w Vec3) float64 { return v.Sub(w).Norm() }

// Axis returns the component of v along axis a (0 = X, 1 = Y, 2 = Z).
func (v Vec3) Axis(a int) float64 {
	switch a {
	case 0:
		return v.X
	case 1:
		return v.Y
	case 2:
		return v.Z
	}
	panic(fmt.Sprintf("geom: invalid axis %d", a))
}

// WithAxis returns a copy of v with the component along axis a replaced by x.
func (v Vec3) WithAxis(a int, x float64) Vec3 {
	switch a {
	case 0:
		v.X = x
	case 1:
		v.Y = x
	case 2:
		v.Z = x
	default:
		panic(fmt.Sprintf("geom: invalid axis %d", a))
	}
	return v
}

// fmin and fmax are branch-based float minima/maxima: unlike math.Min/Max
// they do not special-case NaN or signed zeros, which makes them markedly
// cheaper in the geometry hot paths (particle projection visits them per
// particle per element per step).
func fmin(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

func fmax(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// Min returns the component-wise minimum of v and w.
func (v Vec3) Min(w Vec3) Vec3 {
	return Vec3{fmin(v.X, w.X), fmin(v.Y, w.Y), fmin(v.Z, w.Z)}
}

// Max returns the component-wise maximum of v and w.
func (v Vec3) Max(w Vec3) Vec3 {
	return Vec3{fmax(v.X, w.X), fmax(v.Y, w.Y), fmax(v.Z, w.Z)}
}

// IsFinite reports whether no component of v is NaN or ±Inf.
func (v Vec3) IsFinite() bool {
	return math.Abs(v.X) <= math.MaxFloat64 && math.Abs(v.Y) <= math.MaxFloat64 && math.Abs(v.Z) <= math.MaxFloat64
}

// String implements fmt.Stringer.
func (v Vec3) String() string { return fmt.Sprintf("(%g, %g, %g)", v.X, v.Y, v.Z) }

// Clamp returns v with every component clamped to [lo, hi] component-wise.
func (v Vec3) Clamp(lo, hi Vec3) Vec3 { return v.Max(lo).Min(hi) }

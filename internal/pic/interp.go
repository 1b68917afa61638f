package pic

import (
	"slices"
	"sync"

	"picpredict/internal/fluid"
	"picpredict/internal/geom"
	"picpredict/internal/mesh"
)

// Interpolator performs the grid→particle interpolation phase: it samples
// the fluid velocity at the N×N×N grid points of each element that hosts
// particles, then trilinearly interpolates those nodal values to particle
// positions. Element nodal fields are built lazily per step so cost scales
// with the number of occupied elements, as in the real application where
// only local element data is touched.
//
// Velocity is safe for concurrent use (the parallel solver calls it from
// worker goroutines): cache hits take a read lock; misses build the nodal
// field under the write lock with a double-check.
type Interpolator struct {
	mesh *mesh.Mesh
	flow fluid.Flow

	// nodal velocity cache, keyed by element id; cleared every step. The
	// fields are carved from slab, which BeginStep empties and nodal grows
	// under the write lock. Growth copies into a new array and never
	// rewrites the old one, so a field handed out stays valid for the
	// whole step; once the slab holds the most fields a step has needed,
	// building them allocates nothing.
	mu    sync.RWMutex
	cache map[int][]geom.Vec3
	slab  []geom.Vec3
	// stats
	nodesBuilt int
}

// NewInterpolator creates an interpolator over m sampling flow.
func NewInterpolator(m *mesh.Mesh, flow fluid.Flow) *Interpolator {
	return &Interpolator{mesh: m, flow: flow, cache: make(map[int][]geom.Vec3)}
}

// BeginStep invalidates cached nodal fields; call once per solver step after
// advancing the flow. Not safe concurrently with Velocity.
func (ip *Interpolator) BeginStep() {
	clear(ip.cache)
	ip.slab = ip.slab[:0]
	ip.nodesBuilt = 0
}

// NodesBuilt reports how many element nodal fields were constructed since
// the last BeginStep, an instrumentation counter for the interpolation
// kernel model.
func (ip *Interpolator) NodesBuilt() int { return ip.nodesBuilt }

// nodal returns (building if needed) the nodal velocity field of element e.
// Nodes are laid out x-fastest with N points per axis spanning the element
// box inclusively.
func (ip *Interpolator) nodal(e int) []geom.Vec3 {
	ip.mu.RLock()
	f, ok := ip.cache[e]
	ip.mu.RUnlock()
	if ok {
		return f
	}
	ip.mu.Lock()
	defer ip.mu.Unlock()
	if f, ok := ip.cache[e]; ok { // double-check: another worker built it
		return f
	}
	n := ip.mesh.N
	box := ip.mesh.ElementBox(e)
	ext := box.Extent()
	start, size := len(ip.slab), n*n*n
	ip.slab = slices.Grow(ip.slab, size)[:start+size]
	f = ip.slab[start : start+size : start+size]
	denom := float64(n - 1)
	if n == 1 {
		denom = 1
	}
	idx := 0
	for k := 0; k < n; k++ {
		z := box.Lo.Z + ext.Z*float64(k)/denom
		for j := 0; j < n; j++ {
			y := box.Lo.Y + ext.Y*float64(j)/denom
			for i := 0; i < n; i++ {
				x := box.Lo.X + ext.X*float64(i)/denom
				f[idx] = ip.flow.Velocity(geom.V(x, y, z))
				idx++
			}
		}
	}
	ip.cache[e] = f
	ip.nodesBuilt++
	return f
}

// Velocity returns the fluid velocity interpolated to point p within its
// home element (mesh.Home). Points outside the mesh domain are clamped
// onto it first, matching the clamped particle positions maintained by the
// solver.
func (ip *Interpolator) Velocity(p geom.Vec3) geom.Vec3 {
	d := ip.mesh.Domain()
	e := ip.mesh.Home(p)
	return ip.velocityNodal(ip.mesh.ElementBox(e), ip.nodal(e), p.Clamp(d.Lo, d.Hi))
}

// velocityNodal interpolates the nodal field f of the element with box box
// to the clamped in-element point p. The tiled solver loop fetches f and
// the box once per element tile and calls this for every resident
// particle, skipping the cache lookup and the element-box arithmetic; the
// interpolation is exactly Velocity's, so results are bit-identical on
// either path.
func (ip *Interpolator) velocityNodal(box geom.AABB, f []geom.Vec3, p geom.Vec3) geom.Vec3 {
	n := ip.mesh.N
	if n == 1 {
		return f[0]
	}
	ext := box.Extent()
	// Local coordinates in node units [0, n-1].
	tx := local(p.X, box.Lo.X, ext.X, n)
	ty := local(p.Y, box.Lo.Y, ext.Y, n)
	tz := local(p.Z, box.Lo.Z, ext.Z, n)
	i0, fx := splitCoord(tx, n)
	j0, fy := splitCoord(ty, n)
	k0, fz := splitCoord(tz, n)
	at := func(i, j, k int) geom.Vec3 { return f[i+n*(j+n*k)] }
	// Trilinear blend of the 8 surrounding nodes.
	lerp := func(a, b geom.Vec3, t float64) geom.Vec3 { return a.Add(b.Sub(a).Scale(t)) }
	c00 := lerp(at(i0, j0, k0), at(i0+1, j0, k0), fx)
	c10 := lerp(at(i0, j0+1, k0), at(i0+1, j0+1, k0), fx)
	c01 := lerp(at(i0, j0, k0+1), at(i0+1, j0, k0+1), fx)
	c11 := lerp(at(i0, j0+1, k0+1), at(i0+1, j0+1, k0+1), fx)
	c0 := lerp(c00, c10, fy)
	c1 := lerp(c01, c11, fy)
	return lerp(c0, c1, fz)
}

// local maps coordinate x inside [lo, lo+ext] to node units [0, n-1].
func local(x, lo, ext float64, n int) float64 {
	if ext <= 0 {
		return 0
	}
	t := (x - lo) / ext * float64(n-1)
	if t < 0 {
		return 0
	}
	if t > float64(n-1) {
		return float64(n - 1)
	}
	return t
}

// splitCoord splits a node-unit coordinate into a base node index in
// [0, n-2] and a fraction in [0, 1].
func splitCoord(t float64, n int) (int, float64) {
	i := int(t)
	if i > n-2 {
		i = n - 2
	}
	return i, t - float64(i)
}

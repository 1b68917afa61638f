package pic

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"picpredict/internal/fluid"
	"picpredict/internal/geom"
	"picpredict/internal/mesh"
	"picpredict/internal/particle"
	"picpredict/internal/tile"
)

// Solver advances a particle population through the PIC solver loop against
// a fluid flow on a spectral-element mesh. It is the executable application
// whose particle traces feed the prediction framework.
type Solver struct {
	Mesh      *mesh.Mesh
	Flow      fluid.Flow
	Particles *particle.Set
	Params    Params

	interp       *Interpolator
	collide      *collider
	proj         []float64   // projected particle volume per element
	projPartials [][]float64 // per-worker partial fields (parallel mode)
	time         float64
	step         int
	accel        []geom.Vec3 // StepInstrumented scratch: per-particle fluid velocity, then acceleration

	// Element tiling of the particle population, rebuilt per step: particles
	// resident in the same element are processed as a block so the element's
	// nodal field is fetched once per tile rather than once per particle.
	tb     tile.Builder
	tiling *tile.Tiling
	cells  []int32 // scratch: home element per particle

	// Projection: the element intervals and centres along each axis, fixed
	// by the mesh, and one candidate-window scratch per projection worker.
	axes    [3][]cellSpan
	windows []projWindow

	// Ghost kernel state kept across calls: the owner query of the last
	// decomposition asked about, and the per-particle home ranks and
	// per-tile rank lists it fills.
	ghostQ     *mesh.SphereOwners
	ghostFor   *mesh.Decomposition
	ghostHomes []int
	ghostFlat  []int
	ghostOffs  []int32
}

// NewSolver assembles a solver; it validates parameters and rejects
// particles outside the mesh domain.
func NewSolver(m *mesh.Mesh, flow fluid.Flow, ps *particle.Set, params Params) (*Solver, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if err := ps.Validate(); err != nil {
		return nil, err
	}
	dom := m.Domain()
	for i := 0; i < ps.Len(); i++ {
		if !dom.ContainsClosed(ps.Pos[i]) {
			return nil, fmt.Errorf("pic: particle %d at %v outside domain %v", i, ps.Pos[i], dom)
		}
	}
	var axes [3][]cellSpan
	g := m.Elements
	for a, n := range [3]int{g.Nx, g.Ny, g.Nz} {
		axes[a] = make([]cellSpan, n)
		for c := range axes[a] {
			var ijk [3]int
			ijk[a] = c
			e := g.Index(ijk[0], ijk[1], ijk[2])
			box := g.CellBox(e)
			axes[a][c] = cellSpan{box.Lo.Axis(a), box.Hi.Axis(a), g.CellCenter(e).Axis(a)}
		}
	}
	return &Solver{
		Mesh:      m,
		Flow:      flow,
		Particles: ps,
		Params:    params,
		interp:    NewInterpolator(m, flow),
		collide:   newCollider(),
		proj:      make([]float64, m.NumElements()),
		axes:      axes,
	}, nil
}

// Time returns the current simulation time.
func (s *Solver) Time() float64 { return s.time }

// StepCount returns the number of completed iterations.
func (s *Solver) StepCount() int { return s.step }

// Projection returns the per-element projected particle volume field
// produced by the most recent step. The slice is owned by the solver.
func (s *Solver) Projection() []float64 { return s.proj }

// Step runs one iteration of the PIC solver loop.
func (s *Solver) Step() {
	p := s.Params
	// Advance the gas phase to the end of this step and refresh the
	// interpolation cache (fluid-solver phase).
	s.Flow.Advance(s.time + p.Dt)
	s.interp.BeginStep()

	// Phase 2 inputs — collision forces (optional).
	var coll []geom.Vec3
	if p.Collisions {
		coll = s.collide.Forces(s.Particles, p.CollisionStiffness)
	}

	// Phases 1–3 — interpolate, solve the momentum equation, push — run as
	// one pass per particle, element tile by element tile, so each occupied
	// element's box and nodal field are fetched once per tile.
	s.buildTiling()
	s.parallelTiles(s.Particles.Len(), func(t0, t1 int) {
		s.eachTile(t0, t1, func(t int, ids []int32) {
			box, f := s.Mesh.ElementBox(t), s.interp.nodal(t)
			for _, id := range ids {
				i := int(id)
				s.push(i, s.accelerate(i, s.interpolate(box, f, i), coll))
			}
		})
	})

	// Phase 4: projection (particle → grid).
	s.project(p.Workers)

	s.time += p.Dt
	s.step++
}

// scratch returns the per-particle buffer StepInstrumented's timed passes
// share, sized to the population: the interpolation pass writes each
// particle's fluid velocity into it, and the equation-solver pass replaces
// that with the acceleration the pusher pass pushes with.
func (s *Solver) scratch() []geom.Vec3 {
	n := s.Particles.Len()
	if cap(s.accel) < n {
		s.accel = make([]geom.Vec3, n)
	}
	return s.accel[:n]
}

// buildTiling groups the population by home element (mesh.Home) for this
// step's grid-interaction phases and the ghost kernel. Tile ids equal
// element ids.
func (s *Solver) buildTiling() {
	n := s.Particles.Len()
	if cap(s.cells) < n {
		s.cells = make([]int32, n)
	}
	cells := s.cells[:n]
	for i, p := range s.Particles.Pos[:n] {
		cells[i] = int32(s.Mesh.Home(p))
	}
	s.cells = cells
	s.tiling = s.tb.FromCells(cells, s.Mesh.NumElements())
}

// eachTile calls fn with every occupied tile in [t0, t1) and its particle
// ids, so an element no particle occupies never has its nodal field built.
func (s *Solver) eachTile(t0, t1 int, fn func(t int, ids []int32)) {
	for t := t0; t < t1; t++ {
		if ids := s.tiling.Tile(t); len(ids) > 0 {
			fn(t, ids)
		}
	}
}

// interpolate runs phase 1 (grid → particle) for particle i, a member of
// the element tile with box box and nodal field f: the fluid velocity at
// the particle's clamped position.
func (s *Solver) interpolate(box geom.AABB, f []geom.Vec3, i int) geom.Vec3 {
	d := s.Mesh.Domain()
	return s.interp.velocityNodal(box, f, s.Particles.Pos[i].Clamp(d.Lo, d.Hi))
}

// accelerate runs phase 2, the momentum equation, for particle i under
// fluid velocity uf: drag, gravity and the (optional) collision force.
func (s *Solver) accelerate(i int, uf geom.Vec3, coll []geom.Vec3) geom.Vec3 {
	a := s.drag(i, uf).Add(s.Params.Gravity)
	if coll != nil {
		a = a.Add(coll[i])
	}
	return a
}

// push runs phase 3, the particle pusher selected by Params.Pusher, for
// particle i under acceleration a.
func (s *Solver) push(i int, a geom.Vec3) {
	switch s.Params.Pusher {
	case PushRK2:
		s.pushRK2(i, a)
	default:
		s.pushEuler(i, a)
	}
}

// parallelTiles splits the tile list across Params.Workers goroutines along
// the tiling's balanced particle-count cuts; it runs serially when
// Workers ≤ 1 or the population n is under two particles per worker.
func (s *Solver) parallelTiles(n int, fn func(t0, t1 int)) {
	workers := s.Params.Workers
	if workers <= 1 || n < 2*workers {
		fn(0, s.tiling.NumTiles())
		return
	}
	var wg sync.WaitGroup
	for _, r := range s.tiling.Ranges(workers) {
		t0, t1 := r[0], r[1]
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(t0, t1)
		}()
	}
	wg.Wait()
}

// drag returns the Stokes drag acceleration of particle i under fluid
// velocity uf at its current velocity.
func (s *Solver) drag(i int, uf geom.Vec3) geom.Vec3 { return s.dragAt(i, s.Particles.Vel[i], uf) }

// pushEuler and pushRK2 advance particle i under acceleration a by one
// explicit Euler or midpoint step.
func (s *Solver) pushEuler(i int, a geom.Vec3) {
	dt := s.Params.Dt
	ps := s.Particles
	ps.Vel[i] = ps.Vel[i].Add(a.Scale(dt))
	ps.Pos[i] = ps.Pos[i].Add(ps.Vel[i].Scale(dt))
	s.bounce(i)
}

func (s *Solver) pushRK2(i int, a geom.Vec3) {
	dt := s.Params.Dt
	ps := s.Particles
	vMid := ps.Vel[i].Add(a.Scale(dt / 2))
	pMid := ps.Pos[i].Add(ps.Vel[i].Scale(dt / 2))
	// Midpoints can leave the element, so this one goes through the
	// cached lookup rather than the tile's nodal field.
	ufMid := s.interp.Velocity(pMid)
	aMid := s.dragAt(i, vMid, ufMid).Add(s.Params.Gravity)
	ps.Vel[i] = ps.Vel[i].Add(aMid.Scale(dt))
	ps.Pos[i] = ps.Pos[i].Add(vMid.Scale(dt))
	s.bounce(i)
}

// dragAt returns the Stokes drag acceleration of particle i at velocity v
// under fluid velocity uf: (uf − v) / τ_p with τ_p = ρ_p d² / (18 μ).
func (s *Solver) dragAt(i int, v, uf geom.Vec3) geom.Vec3 {
	ps := s.Particles
	tau := ps.Density[i] * ps.Diameter[i] * ps.Diameter[i] / (18 * s.Params.Mu)
	if tau <= 0 {
		return geom.Vec3{}
	}
	return uf.Sub(v).Scale(1 / tau)
}

// bounce reflects particle i off the domain walls with the configured
// restitution, keeping every particle inside the closed domain.
func (s *Solver) bounce(i int) {
	d := s.Mesh.Domain()
	ps := s.Particles
	pos, vel := ps.Pos[i], ps.Vel[i]
	// Fast path: the overwhelming majority of pushes stay inside.
	if pos.X >= d.Lo.X && pos.X <= d.Hi.X &&
		pos.Y >= d.Lo.Y && pos.Y <= d.Hi.Y &&
		pos.Z >= d.Lo.Z && pos.Z <= d.Hi.Z {
		return
	}
	for a := 0; a < 3; a++ {
		lo, hi := d.Lo.Axis(a), d.Hi.Axis(a)
		x, v := pos.Axis(a), vel.Axis(a)
		switch {
		case x < lo:
			x = lo + (lo - x)
			v = -v * s.Params.WallRestitution
		case x > hi:
			x = hi - (x - hi)
			v = -v * s.Params.WallRestitution
		}
		// A huge step can overshoot the reflection too; clamp hard.
		x = math.Max(lo, math.Min(hi, x))
		pos = pos.WithAxis(a, x)
		vel = vel.WithAxis(a, v)
	}
	ps.Pos[i], ps.Vel[i] = pos, vel
}

// project deposits each particle's volume onto the elements inside its
// projection filter with a linear hat weight w(r) = 1 − r/R, normalised per
// particle so total deposited volume equals particle volume. With several
// workers each accumulates into a private partial field; partials reduce
// in fixed worker order, so results are deterministic for a given worker
// count (and equal to serial up to floating-point addition order).
func (s *Solver) project(workers int) {
	for e := range s.proj {
		s.proj[e] = 0
	}
	n := s.Particles.Len()
	if workers <= 1 || n < 2*workers {
		s.projectRange(0, n, s.proj, &s.projWindows(1)[0])
		return
	}
	if len(s.projPartials) != workers {
		s.projPartials = make([][]float64, workers)
		for w := range s.projPartials {
			s.projPartials[w] = make([]float64, s.Mesh.NumElements())
		}
	}
	wins := s.projWindows(workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		part, win := s.projPartials[w], &wins[w]
		for e := range part {
			part[e] = 0
		}
		lo := n * w / workers
		hi := n * (w + 1) / workers
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.projectRange(lo, hi, part, win)
		}()
	}
	wg.Wait()
	for _, part := range s.projPartials {
		for e, v := range part {
			s.proj[e] += v
		}
	}
}

// cellSpan is one element's interval and centre along one mesh axis: the
// bounds Grid.CellBox gives, which are the interval Grid.AxisDist2Table
// measures to, and the coordinate Grid.CellCenter gives.
type cellSpan struct{ lo, hi, centre float64 }

// axisEntry is one candidate-window cell along one axis, seen from a
// particle coordinate x: the squared distance from x to the cell's interval
// and the offset of the cell's centre from x.
type axisEntry struct{ dist2, offset float64 }

// axisWindow writes the entries of cells [first, last] of axis cells, seen
// from coordinate x, into buf's storage.
func axisWindow(buf []axisEntry, cells []cellSpan, x float64, first, last int) []axisEntry {
	buf = buf[:0]
	for _, c := range cells[first : last+1] {
		buf = append(buf, axisEntry{geom.AxisDist2(x, c.lo, c.hi), c.centre - x})
	}
	return buf
}

// member is an element inside a particle's filter and its hat weight.
type member struct {
	elem   int
	weight float64
}

// projWindow is one projection worker's scratch: a particle's candidate
// window along each axis, and its member elements in visiting order.
type projWindow struct {
	axes    [3][]axisEntry
	members []member
}

// projWindows returns the scratch of projection workers [0, workers), each
// sized on first use for the current filter radius: along an axis of cell
// size d a window spans at most ⌊2R/d⌋+2 cells, one more is allowed for
// round-off, and an axis never offers more cells than it has. The slices
// grow by append, so a radius raised later costs one reallocation, never a
// wrong window.
func (s *Solver) projWindows(workers int) []projWindow {
	for len(s.windows) < workers {
		g := s.Mesh.Elements
		cells := 1
		var win projWindow
		for a, n := range [3]int{g.Nx, g.Ny, g.Nz} {
			if d := g.CellSize().Axis(a); d > 0 {
				if c := 2*s.Params.FilterRadius/d + 3; c < float64(n) {
					n = int(c)
				}
			}
			win.axes[a] = make([]axisEntry, 0, n)
			cells *= n
		}
		win.members = make([]member, 0, cells)
		s.windows = append(s.windows, win)
	}
	return s.windows
}

// projectRange deposits particles [lo, hi) into proj in index order. A
// particle's window (Grid.ClampCoords of its filter ball's box), the
// per-axis box distances, the membership test and the (k, j, i) visiting
// order are exactly Grid.CellsInSphere's, and each member's centre
// distance has Vec3.Dist's expression shape over Grid.CellCenter's
// coordinates, so every weight and every element's deposit order, hence
// the projected field, are bit-identical to a CellsInSphere/CellCenter
// walk.
//
// A zero filter, or a ball whose member centres all lie at or beyond R,
// deposits the whole volume at the raw position's Mesh.ElementAt, so a
// particle outside the domain or with a NaN coordinate deposits nothing
// there. Under a positive filter a NaN coordinate's window clamps onto the
// low face and its NaN weights reach those elements: the field shows the
// fault rather than hiding it.
func (s *Solver) projectRange(lo, hi int, proj []float64, win *projWindow) {
	radius := s.Params.FilterRadius
	ps := s.Particles
	g := s.Mesh.Elements
	r2 := radius * radius
	rv := geom.V(radius, radius, radius)
	// The scratch lives in locals for the loop and is stored back once, so
	// growth persists without a pointer store per particle.
	wx, wy, wz, members := win.axes[0], win.axes[1], win.axes[2], win.members
	for i := lo; i < hi; i++ {
		vol := ps.Mass(i) / ps.Density[i]
		p := ps.Pos[i]
		if radius <= 0 {
			if e := s.Mesh.ElementAt(p); e >= 0 {
				proj[e] += vol
			}
			continue
		}
		ilo, jlo, klo := g.ClampCoords(p.Sub(rv))
		ihi, jhi, khi := g.ClampCoords(p.Add(rv))
		wx = axisWindow(wx, s.axes[0], p.X, ilo, ihi)
		wy = axisWindow(wy, s.axes[1], p.Y, jlo, jhi)
		wz = axisWindow(wz, s.axes[2], p.Z, klo, khi)
		members = members[:0]
		total := 0.0
		for k, z := range wz {
			for j, y := range wy {
				djk := y.dist2 + z.dist2
				if djk > r2 {
					continue
				}
				base := g.Index(ilo, jlo+j, klo+k)
				for c, x := range wx {
					if x.dist2+djk > r2 {
						continue
					}
					wt := 1 - math.Sqrt(x.offset*x.offset+y.offset*y.offset+z.offset*z.offset)/radius
					if wt < 0 {
						wt = 0
					}
					members = append(members, member{base + c, wt})
					total += wt
				}
			}
		}
		if total <= 0 {
			// Ball intersects elements but all centres are beyond R:
			// deposit everything in the home element.
			if e := s.Mesh.ElementAt(p); e >= 0 {
				proj[e] += vol
			}
			continue
		}
		for _, m := range members {
			proj[m.elem] += vol * m.weight / total
		}
	}
	win.axes, win.members = [3][]axisEntry{wx, wy, wz}, members
}

// CreateGhostParticles runs the create_ghost_particles kernel against a
// processor decomposition: for every particle it finds the ranks (other
// than the particle's home rank) whose elements its projection filter
// touches. It returns the per-rank ghost counts and the total number of
// ghost particles created.
//
// Particles are grouped by home element and each tile's ghost query is
// answered in one batch by mesh.SphereOwners.RanksTile, whose per-particle
// rank sets equal the per-particle SphereOwners.Ranks query exactly; only
// counts are accumulated, so the order within a set does not matter. A
// particle with a NaN or infinite coordinate creates no ghosts. The query,
// the home ranks and the rank lists are kept on the solver, so a repeated
// call against the same decomposition allocates only perRank.
func (s *Solver) CreateGhostParticles(d *mesh.Decomposition) (perRank []int, total int) {
	if s.ghostFor != d {
		s.ghostQ, s.ghostFor = mesh.NewSphereOwners(s.Mesh, d), d
	}
	s.buildTiling()
	homes := slices.Grow(s.ghostHomes[:0], len(s.cells))[:len(s.cells)]
	for i, e := range s.cells {
		homes[i] = d.RankOf(int(e))
	}
	s.ghostHomes = homes
	perRank = make([]int, d.Ranks)
	flat, offs := s.ghostFlat, s.ghostOffs
	s.eachTile(0, s.tiling.NumTiles(), func(_ int, ids []int32) {
		flat, offs = s.ghostQ.RanksTile(flat[:0], offs[:0], ids, s.Particles.Pos, homes, s.Params.FilterRadius)
		for _, r := range flat {
			perRank[r]++
		}
		total += len(flat)
	})
	s.ghostFlat, s.ghostOffs = flat, offs
	return perRank, total
}

// Run advances the solver `steps` iterations, invoking observe (if non-nil)
// after every iteration with the completed step index.
func (s *Solver) Run(steps int, observe func(step int)) {
	for i := 0; i < steps; i++ {
		s.Step()
		if observe != nil {
			observe(s.step)
		}
	}
}

package pic

import (
	"fmt"
	"math"
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
	accel        []geom.Vec3 // scratch: per-particle fluid velocity, then acceleration

	// Element tiling of the particle population, rebuilt per step: particles
	// resident in the same element are processed as a block so the element's
	// nodal field is fetched once per tile rather than once per particle.
	tb     tile.Builder
	tiling *tile.Tiling
	cells  []int32 // scratch: home element per particle
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
	return &Solver{
		Mesh:      m,
		Flow:      flow,
		Particles: ps,
		Params:    params,
		interp:    NewInterpolator(m, flow),
		collide:   newCollider(),
		proj:      make([]float64, m.NumElements()),
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
	acc := s.scratch()

	// Phase 2 inputs — collision forces (optional).
	var coll []geom.Vec3
	if p.Collisions {
		coll = s.collide.Forces(s.Particles, p.CollisionStiffness)
	}

	// Phases 1–3 — interpolate, solve the momentum equation, push — walk
	// the population element tile by element tile, so each occupied
	// element's nodal field is fetched once per tile.
	s.buildTiling()
	s.parallelTiles(len(acc), func(t0, t1 int) {
		s.eachTile(t0, t1, func(t int, ids []int32) {
			s.interpolateTile(t, ids, acc)
			s.solveTile(ids, acc, coll)
			s.pushTile(ids, acc)
		})
	})

	// Phase 4: projection (particle → grid).
	s.project(p.Workers)

	s.time += p.Dt
	s.step++
}

// scratch returns the per-particle buffer phases 1–3 share, sized to the
// population: phase 1 writes each particle's fluid velocity into it, and
// phase 2 replaces that with the acceleration phase 3 pushes with.
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

// interpolateTile runs phase 1 (grid → particle) over the particles ids of
// element tile t: the element's nodal field is fetched once and
// interpolated into uf at every member's clamped position.
func (s *Solver) interpolateTile(t int, ids []int32, uf []geom.Vec3) {
	d := s.Mesh.Domain()
	f := s.interp.nodal(t)
	for _, id := range ids {
		uf[id] = s.interp.velocityNodal(t, f, s.Particles.Pos[id].Clamp(d.Lo, d.Hi))
	}
}

// solveTile runs phase 2, the momentum equation, in place: acc holds each
// particle's interpolated fluid velocity on entry and its acceleration —
// drag, gravity and (optional) collision forces — on return.
func (s *Solver) solveTile(ids []int32, acc, coll []geom.Vec3) {
	g := s.Params.Gravity
	for _, id := range ids {
		i := int(id)
		a := s.drag(i, acc[i]).Add(g)
		if coll != nil {
			a = a.Add(coll[i])
		}
		acc[i] = a
	}
}

// pushTile runs phase 3, the particle pusher selected by Params.Pusher.
func (s *Solver) pushTile(ids []int32, acc []geom.Vec3) {
	switch s.Params.Pusher {
	case PushRK2:
		s.pushRK2Tile(acc, ids)
	default:
		s.pushEulerTile(acc, ids)
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

// pushEulerTile and pushRK2Tile advance a tile's member ids (ascending) by
// one explicit Euler or midpoint step.
func (s *Solver) pushEulerTile(acc []geom.Vec3, ids []int32) {
	dt := s.Params.Dt
	ps := s.Particles
	for _, id := range ids {
		i := int(id)
		ps.Vel[i] = ps.Vel[i].Add(acc[i].Scale(dt))
		ps.Pos[i] = ps.Pos[i].Add(ps.Vel[i].Scale(dt))
		s.bounce(i)
	}
}

func (s *Solver) pushRK2Tile(acc []geom.Vec3, ids []int32) {
	dt := s.Params.Dt
	ps := s.Particles
	for _, id := range ids {
		i := int(id)
		vMid := ps.Vel[i].Add(acc[i].Scale(dt / 2))
		pMid := ps.Pos[i].Add(ps.Vel[i].Scale(dt / 2))
		// Midpoints can leave the element, so this one goes through the
		// cached lookup rather than the tile's nodal field.
		ufMid := s.interp.Velocity(pMid)
		aMid := s.dragAt(i, vMid, ufMid).Add(s.Params.Gravity)
		ps.Vel[i] = ps.Vel[i].Add(aMid.Scale(dt))
		ps.Pos[i] = ps.Pos[i].Add(vMid.Scale(dt))
		s.bounce(i)
	}
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
		s.projectRange(0, n, s.proj)
		return
	}
	if len(s.projPartials) != workers {
		s.projPartials = make([][]float64, workers)
		for w := range s.projPartials {
			s.projPartials[w] = make([]float64, s.Mesh.NumElements())
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		part := s.projPartials[w]
		for e := range part {
			part[e] = 0
		}
		lo := n * w / workers
		hi := n * (w + 1) / workers
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.projectRange(lo, hi, part)
		}()
	}
	wg.Wait()
	for _, part := range s.projPartials {
		for e, v := range part {
			s.proj[e] += v
		}
	}
}

// projectRange deposits particles [lo, hi) into proj.
func (s *Solver) projectRange(lo, hi int, proj []float64) {
	radius := s.Params.FilterRadius
	ps := s.Particles
	var buf []int
	var w []float64
	for i := lo; i < hi; i++ {
		vol := ps.Mass(i) / ps.Density[i]
		if radius <= 0 {
			if e := s.Mesh.ElementAt(ps.Pos[i]); e >= 0 {
				proj[e] += vol
			}
			continue
		}
		buf = s.Mesh.ElementsInSphere(buf[:0], ps.Pos[i], radius)
		w = w[:0]
		total := 0.0
		for _, e := range buf {
			r := s.Mesh.Elements.CellCenter(e).Dist(ps.Pos[i])
			wt := 1 - r/radius
			if wt < 0 {
				wt = 0
			}
			w = append(w, wt)
			total += wt
		}
		if total <= 0 {
			// Ball intersects elements but all centres are beyond R:
			// deposit everything in the home element.
			if e := s.Mesh.ElementAt(ps.Pos[i]); e >= 0 {
				proj[e] += vol
			}
			continue
		}
		for k, e := range buf {
			proj[e] += vol * w[k] / total
		}
	}
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
// particle with a NaN or infinite coordinate creates no ghosts.
func (s *Solver) CreateGhostParticles(d *mesh.Decomposition) (perRank []int, total int) {
	q := mesh.NewSphereOwners(s.Mesh, d)
	s.buildTiling()
	homes := make([]int, len(s.cells))
	for i, e := range s.cells {
		homes[i] = d.RankOf(int(e))
	}
	perRank = make([]int, d.Ranks)
	var flat []int
	var offs []int32
	s.eachTile(0, s.tiling.NumTiles(), func(_ int, ids []int32) {
		flat, offs = q.RanksTile(flat[:0], offs[:0], ids, s.Particles.Pos, homes, s.Params.FilterRadius)
		for _, r := range flat {
			perRank[r]++
		}
		total += len(flat)
	})
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

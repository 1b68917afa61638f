package pic

import (
	"picpredict/internal/geom"
	"picpredict/internal/mesh"
	"picpredict/internal/particle"
)

// This file keeps the per-particle solver loops the element-tiled Step
// replaced, as the reference the tiled paths are checked against
// (tiled_test.go): phases 1–3 in particle-index order with the cached
// interpolator lookup, the projection with one Mesh.ElementsInSphere list
// and one Grid.CellCenter call per member element, and the ghost kernel
// with one raw-position home lookup and one SphereOwners.Ranks query per
// particle.

// oracleStep is Step with phases 1–3 run by phaseRange over the whole
// population; projection runs oracleProject with projWorkers workers.
func oracleStep(s *Solver, projWorkers int) {
	p := s.Params
	s.Flow.Advance(s.time + p.Dt)
	s.interp.BeginStep()
	acc := s.scratch()
	var coll []geom.Vec3
	if p.Collisions {
		coll = s.collide.Forces(s.Particles, p.CollisionStiffness)
	}
	s.phaseRange(0, len(acc), acc, coll)
	oracleProject(s, projWorkers)
	s.time += p.Dt
	s.step++
}

// phaseRange is the per-particle reference body of phases 1–3 over the index
// range [lo, hi).
func (s *Solver) phaseRange(lo, hi int, acc, coll []geom.Vec3) {
	p := s.Params
	for i := lo; i < hi; i++ {
		uf := s.interp.Velocity(s.Particles.Pos[i]) // Phase 1: interpolation
		a := s.drag(i, uf).Add(p.Gravity)           // Phase 2: equation solver
		if coll != nil {
			a = a.Add(coll[i])
		}
		acc[i] = a
	}
	switch p.Pusher { // Phase 3: particle pusher
	case PushRK2:
		s.pushRK2Range(acc, lo, hi)
	default:
		s.pushEulerRange(acc, lo, hi)
	}
}

func (s *Solver) pushEulerRange(acc []geom.Vec3, lo, hi int) {
	dt := s.Params.Dt
	ps := s.Particles
	for i := lo; i < hi; i++ {
		ps.Vel[i] = ps.Vel[i].Add(acc[i].Scale(dt))
		ps.Pos[i] = ps.Pos[i].Add(ps.Vel[i].Scale(dt))
		s.bounce(i)
	}
}

func (s *Solver) pushRK2Range(acc []geom.Vec3, lo, hi int) {
	dt := s.Params.Dt
	ps := s.Particles
	for i := lo; i < hi; i++ {
		// Midpoint state.
		vMid := ps.Vel[i].Add(acc[i].Scale(dt / 2))
		pMid := ps.Pos[i].Add(ps.Vel[i].Scale(dt / 2))
		ufMid := s.interp.Velocity(pMid)
		aMid := s.dragAt(i, vMid, ufMid).Add(s.Params.Gravity)
		ps.Vel[i] = ps.Vel[i].Add(aMid.Scale(dt))
		ps.Pos[i] = ps.Pos[i].Add(vMid.Scale(dt))
		s.bounce(i)
	}
}

// oracleProject is Solver.project with oracleProjectRange as the per-range
// body: the same worker partition of the particle index range, one partial
// field per worker, reduced in worker order. The partials are filled one
// after another; each depends only on its own range, so the result equals
// the concurrent fill's bit for bit.
func oracleProject(s *Solver, workers int) {
	clear(s.proj)
	n := s.Particles.Len()
	if workers <= 1 || n < 2*workers {
		oracleProjectRange(s, 0, n, s.proj)
		return
	}
	for w := 0; w < workers; w++ {
		part := make([]float64, len(s.proj))
		oracleProjectRange(s, n*w/workers, n*(w+1)/workers, part)
		for e, v := range part {
			s.proj[e] += v
		}
	}
}

// oracleProjectRange deposits particles [lo, hi) into proj.
func oracleProjectRange(s *Solver, lo, hi int, proj []float64) {
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

// oracleGhosts is the per-particle reference of CreateGhostParticles.
func oracleGhosts(s *Solver, d *mesh.Decomposition) (perRank []int, total int) {
	q := mesh.NewSphereOwners(s.Mesh, d)
	perRank = make([]int, d.Ranks)
	ps := s.Particles
	var buf []int
	for i := 0; i < ps.Len(); i++ {
		home := -1
		if e := s.Mesh.ElementAt(ps.Pos[i]); e >= 0 {
			home = d.RankOf(e)
		}
		buf = q.Ranks(buf[:0], ps.Pos[i], s.Params.FilterRadius, home)
		for _, r := range buf {
			perRank[r]++
			total++
		}
	}
	return perRank, total
}

// oracleForces is the collider with its map broad phase: per-cell id lists
// in a map keyed by cell, rebuilt on every call. Forces must reproduce its
// accelerations bit for bit.
func oracleForces(s *particle.Set, stiffness float64) []geom.Vec3 {
	n := s.Len()
	acc := make([]geom.Vec3, n)
	maxD := 0.0
	for i := 0; i < n; i++ {
		if s.Diameter[i] > maxD {
			maxD = s.Diameter[i]
		}
	}
	if maxD <= 0 {
		return acc
	}
	c := &collider{cellSize: maxD}
	cells := make(map[cellKey][]int)
	for i := 0; i < n; i++ {
		k := c.key(s.Pos[i])
		cells[k] = append(cells[k], i)
	}
	for i := 0; i < n; i++ {
		ki := c.key(s.Pos[i])
		for dk := int32(-1); dk <= 1; dk++ {
			for dj := int32(-1); dj <= 1; dj++ {
				for di := int32(-1); di <= 1; di++ {
					neigh := cellKey{ki.i + di, ki.j + dj, ki.k + dk}
					for _, j := range cells[neigh] {
						if j <= i {
							continue
						}
						c.pair(s, i, j, stiffness, acc)
					}
				}
			}
		}
	}
	return acc
}

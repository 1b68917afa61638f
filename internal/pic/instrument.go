package pic

import (
	"time"

	"picpredict/internal/geom"
	"picpredict/internal/mesh"
)

// StepTimings are wall-clock measurements of one instrumented solver
// iteration, one entry per kernel of the PIC solver loop (§III-A). They are
// the training data of the Model Generator when benchmarking the real
// application rather than the synthetic kernel bodies.
type StepTimings struct {
	// FluidAdvance is the gas-phase (fluid-solver) time.
	FluidAdvance time.Duration
	// Collisions is the particle–particle collision force time (zero when
	// collisions are disabled).
	Collisions time.Duration
	// Interpolation is the grid→particle phase.
	Interpolation time.Duration
	// EqSolver is the momentum-equation phase.
	EqSolver time.Duration
	// Pusher is the position-update phase.
	Pusher time.Duration
	// Projection is the particle→grid phase.
	Projection time.Duration
}

// StepInstrumented runs one solver iteration with phases 1–3 executed as
// three separate serial passes over the element tiles Step walks, so each
// kernel Step runs can be timed individually; the element tiling is built
// inside the interpolation timer. Each pass calls the same per-particle
// helper Step calls (interpolate, accelerate, push), so the resulting
// particle state is identical to Step's; only the loop structure differs.
// Projection runs with one worker (timings of interleaved goroutines would
// not be attributable to kernels), so with several Params.Workers the
// projected field equals Step's up to floating-point addition order.
func (s *Solver) StepInstrumented() StepTimings {
	p := s.Params
	var t StepTimings

	start := time.Now() //lint:allow determinism wall-clock kernel timing is this file's product (Model Generator training data)
	s.Flow.Advance(s.time + p.Dt)
	s.interp.BeginStep()
	t.FluidAdvance = time.Since(start)

	acc := s.scratch()
	var coll []geom.Vec3
	if p.Collisions {
		start = time.Now() //lint:allow determinism wall-clock kernel timing is this file's product (Model Generator training data)
		coll = s.collide.Forces(s.Particles, p.CollisionStiffness)
		t.Collisions = time.Since(start)
	}

	// Phase 1: interpolation (grid → particle).
	start = time.Now() //lint:allow determinism wall-clock kernel timing is this file's product (Model Generator training data)
	s.buildTiling()
	nt := s.tiling.NumTiles()
	s.eachTile(0, nt, func(tl int, ids []int32) {
		box, f := s.Mesh.ElementBox(tl), s.interp.nodal(tl)
		for _, id := range ids {
			acc[id] = s.interpolate(box, f, int(id))
		}
	})
	t.Interpolation = time.Since(start)

	// Phase 2: equation solver.
	start = time.Now() //lint:allow determinism wall-clock kernel timing is this file's product (Model Generator training data)
	s.eachTile(0, nt, func(_ int, ids []int32) {
		for _, id := range ids {
			acc[id] = s.accelerate(int(id), acc[id], coll)
		}
	})
	t.EqSolver = time.Since(start)

	// Phase 3: particle pusher.
	start = time.Now() //lint:allow determinism wall-clock kernel timing is this file's product (Model Generator training data)
	s.eachTile(0, nt, func(_ int, ids []int32) {
		for _, id := range ids {
			s.push(int(id), acc[id])
		}
	})
	t.Pusher = time.Since(start)

	// Phase 4: projection (particle → grid).
	start = time.Now() //lint:allow determinism wall-clock kernel timing is this file's product (Model Generator training data)
	s.project(1)
	t.Projection = time.Since(start)

	s.time += p.Dt
	s.step++
	return t
}

// TimedCreateGhostParticles runs the create_ghost_particles kernel against
// a decomposition and reports its wall time alongside the ghost counts.
func (s *Solver) TimedCreateGhostParticles(d *mesh.Decomposition) (perRank []int, total int, elapsed time.Duration) {
	start := time.Now() //lint:allow determinism wall-clock kernel timing is this file's product (Model Generator training data)
	perRank, total = s.CreateGhostParticles(d)
	return perRank, total, time.Since(start)
}

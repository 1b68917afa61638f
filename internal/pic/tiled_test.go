package pic

import (
	"fmt"
	"math"
	"testing"

	"picpredict/internal/fluid"
	"picpredict/internal/geom"
	"picpredict/internal/mesh"
	"picpredict/internal/particle"
)

// tiledFixture builds a solver over a sheared cloud in a spatially varying
// flow.
func tiledFixture(t *testing.T, workers int, pusher PusherKind, collisions bool) *Solver {
	t.Helper()
	m, err := mesh.New(geom.Box(geom.V(0, 0, 0), geom.V(1, 1, 0.01)), 16, 16, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	ps := particle.New(500)
	for i := 0; i < 500; i++ {
		x := 0.25 + 0.5*float64(i%25)/25
		y := 0.25 + 0.5*float64(i/25)/20
		ps.Add(int64(i), geom.V(x, y, 0.005), geom.Vec3{}, 1e-4, 1200)
	}
	params := Params{
		Dt:              0.01,
		FilterRadius:    0.02,
		Mu:              1.8e-5,
		Pusher:          pusher,
		WallRestitution: 0.5,
		Workers:         workers,
	}
	if collisions {
		params.Collisions = true
		params.CollisionStiffness = 1e-5
	}
	flow := &fluid.DiaphragmBurst{Origin: geom.V(0.5, 0.5, 0), Amp: 0.002, Decay: 1, Core: 0.05}
	s, err := NewSolver(m, flow, ps, params)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// sameState fails the test unless a and b hold bit-identical particles,
// projection fields and nodal-field build counts.
func sameState(t *testing.T, what string, step int, ref, got *Solver) {
	t.Helper()
	for i := 0; i < ref.Particles.Len(); i++ {
		if ref.Particles.Pos[i] != got.Particles.Pos[i] || ref.Particles.Vel[i] != got.Particles.Vel[i] {
			t.Fatalf("%s step %d particle %d: oracle %v/%v, got %v/%v", what, step, i,
				ref.Particles.Pos[i], ref.Particles.Vel[i], got.Particles.Pos[i], got.Particles.Vel[i])
		}
	}
	for e := range ref.Projection() {
		if ref.Projection()[e] != got.Projection()[e] {
			t.Fatalf("%s step %d: projection diverged at element %d: oracle %v, got %v",
				what, step, e, ref.Projection()[e], got.Projection()[e])
		}
	}
	if ref.interp.NodesBuilt() != got.interp.NodesBuilt() {
		t.Fatalf("%s step %d: nodal builds diverged: oracle %d, got %d",
			what, step, ref.interp.NodesBuilt(), got.interp.NodesBuilt())
	}
}

// TestTiledStepMatchesScalar is the solver half of the tiled-layout
// contract: Step and StepInstrumented, which walk particles element tile by
// element tile, must leave every particle, the projection field and the
// nodal-build count bit-identical to the per-particle oracle, for both
// pushers, serial and parallel, with and without collision forces.
func TestTiledStepMatchesScalar(t *testing.T) {
	for _, pusher := range []PusherKind{PushEuler, PushRK2} {
		for _, workers := range []int{0, 4} {
			for _, collisions := range []bool{false, true} {
				t.Run(fmt.Sprintf("%v/w=%d/coll=%v", pusher, workers, collisions), func(t *testing.T) {
					ref := tiledFixture(t, workers, pusher, collisions)
					got := tiledFixture(t, workers, pusher, collisions)
					inst := tiledFixture(t, workers, pusher, collisions)
					for step := 0; step < 25; step++ {
						oracleStep(ref, workers)
						got.Step()
						sameState(t, "Step", step, ref, got)
						inst.StepInstrumented()
						// StepInstrumented projects with one worker; the
						// field depends only on the particle state, so the
						// oracle re-projects the same state to match.
						ref.project(1)
						sameState(t, "StepInstrumented", step, ref, inst)
					}
				})
			}
		}
	}
}

// TestTiledCreateGhostParticlesMatchesScalar checks the batched ghost
// kernel: per-rank ghost counts from the tile-grouped SphereOwners query
// must equal the per-particle oracle's for every filter radius, including
// radius zero (no ghosts).
func TestTiledCreateGhostParticlesMatchesScalar(t *testing.T) {
	for _, radius := range []float64{0, 0.01, 0.08, 0.4} {
		s := tiledFixture(t, 0, PushEuler, false)
		d, err := mesh.Decompose(s.Mesh, 8)
		if err != nil {
			t.Fatal(err)
		}
		s.Params.FilterRadius = radius
		gotRanks, gotTotal := s.CreateGhostParticles(d)
		wantRanks, wantTotal := oracleGhosts(s, d)
		if gotTotal != wantTotal {
			t.Fatalf("radius %g: tiled total %d, oracle %d", radius, gotTotal, wantTotal)
		}
		for r := range wantRanks {
			if gotRanks[r] != wantRanks[r] {
				t.Fatalf("radius %g rank %d: tiled %d, oracle %d", radius, r, gotRanks[r], wantRanks[r])
			}
		}
	}
}

// TestCreateGhostParticlesNonFinite: a particle with a NaN or infinite
// coordinate, placed first, in the middle or last of an element tile it
// shares with finite particles, neither panics nor creates ghosts, and the
// finite particles' counts equal the oracle's over them alone.
func TestCreateGhostParticlesNonFinite(t *testing.T) {
	m, err := mesh.New(geom.Box(geom.V(0, 0, 0), geom.V(1, 1, 0.01)), 16, 16, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	d, err := mesh.Decompose(m, 8)
	if err != nil {
		t.Fatal(err)
	}
	// Three particles in each wall element a non-finite x clamps into
	// (i = 0 and i = 15 on row j = 8), and two in between.
	finite := []geom.Vec3{
		geom.V(0.01, 0.52, 0.005), geom.V(0.03, 0.55, 0.005), geom.V(0.05, 0.53, 0.005),
		geom.V(0.95, 0.52, 0.005), geom.V(0.97, 0.55, 0.005), geom.V(0.99, 0.53, 0.005),
		geom.V(0.5, 0.5, 0.005), geom.V(0.45, 0.6, 0.005),
	}
	build := func(pos []geom.Vec3) *Solver {
		ps := particle.New(len(pos))
		for i, p := range pos {
			ps.Add(int64(i), p, geom.Vec3{}, 1e-4, 1200)
		}
		p := baseParams()
		p.FilterRadius = 0.08
		s, err := NewSolver(m, fluid.Uniform{}, ps, p)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	wantRanks, wantTotal := oracleGhosts(build(finite), d)
	for _, x := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for at := 0; at <= len(finite); at++ {
			pos := append(append(append([]geom.Vec3{}, finite[:at]...), geom.V(0.5, 0.52, 0.005)), finite[at:]...)
			s := build(pos)
			s.Particles.Pos[at].X = x
			gotRanks, gotTotal := s.CreateGhostParticles(d)
			if gotTotal != wantTotal {
				t.Fatalf("x=%g at %d: total %d, oracle over the finite particles %d", x, at, gotTotal, wantTotal)
			}
			for r := range wantRanks {
				if gotRanks[r] != wantRanks[r] {
					t.Fatalf("x=%g at %d rank %d: %d, oracle %d", x, at, r, gotRanks[r], wantRanks[r])
				}
			}
		}
	}
}

package pic

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
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
						oracleProject(ref, 1)
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

// projectionProbes returns positions inside m's closed domain that sit on
// the projection's decision boundaries for filter radius r: cell corners
// (domain faces and corners included), face midpoints and centres, points
// exactly r from a cell centre or a cell face along each axis, and random
// interior points.
func projectionProbes(rng *rand.Rand, m *mesh.Mesh, r float64) []geom.Vec3 {
	g := m.Elements
	dom := m.Domain()
	var out []geom.Vec3
	add := func(p geom.Vec3) {
		if dom.ContainsClosed(p) {
			out = append(out, p)
		}
	}
	for range 12 {
		e := rng.Intn(g.Len())
		box, c := g.CellBox(e), g.CellCenter(e)
		add(box.Lo)
		add(box.Hi)
		add(c)
		for a := 0; a < 3; a++ {
			add(c.WithAxis(a, box.Lo.Axis(a)))
			add(c.WithAxis(a, box.Hi.Axis(a)))
			add(c.WithAxis(a, c.Axis(a)+r))
			add(c.WithAxis(a, c.Axis(a)-r))
			add(c.WithAxis(a, box.Hi.Axis(a)+r))
			add(c.WithAxis(a, box.Lo.Axis(a)-r))
		}
	}
	add(dom.Lo)
	add(dom.Hi)
	ext := dom.Extent()
	for range 40 {
		add(dom.Lo.Add(geom.V(rng.Float64()*ext.X, rng.Float64()*ext.Y, rng.Float64()*ext.Z)))
	}
	return out
}

// sameBits reports whether a and b are the same float64, counting any two
// NaNs as equal.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// TestProjectionMatchesOracle: the projection from per-axis element-centre
// tables deposits exactly what the per-particle ElementsInSphere/CellCenter
// oracle deposits, bit for bit, serially and over three workers. It covers
// random grids, a flat z axis, the 49×49 unit mesh (whose high face rounds
// below lo + d·n) and a dyadic grid where probe distances hit the filter
// radius exactly; filter radii from 0 to 6 element widths; and particles on
// faces, corners and centres, exactly R from a centre or a face, and with a
// NaN coordinate.
func TestProjectionMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	type gridSpec struct {
		box        geom.AABB
		nx, ny, nz int
	}
	grids := []gridSpec{
		{geom.Box(geom.V(0, 0, 0), geom.V(1, 1, 0.01)), 49, 49, 1},
		{geom.Box(geom.V(0, 0, 0), geom.V(1, 1, 0)), 8, 8, 1},
		{geom.Box(geom.V(-1, -1, -1), geom.V(1, 1, 1)), 4, 8, 4},
	}
	for len(grids) < 10 {
		lo := geom.V(rng.Float64()-0.5, rng.Float64()-0.5, rng.Float64()-0.5)
		ext := geom.V(0.1+rng.Float64(), 0.1+rng.Float64(), 0.1+rng.Float64())
		grids = append(grids, gridSpec{geom.Box(lo, lo.Add(ext)), 1 + rng.Intn(12), 1 + rng.Intn(12), 1 + rng.Intn(4)})
	}
	nanSeen := false
	for gi, gs := range grids {
		m, err := mesh.New(gs.box, gs.nx, gs.ny, gs.nz, 2)
		if err != nil {
			t.Fatal(err)
		}
		for _, widths := range []float64{0, 0.3, 1, 2.5, 6} {
			radius := widths * m.Elements.CellSize().X
			pos := projectionProbes(rng, m, radius)
			ps := particle.New(len(pos))
			for i, p := range pos {
				ps.Add(int64(i), p, geom.Vec3{}, 1e-4*(1+rng.Float64()), 1000)
			}
			params := baseParams()
			params.FilterRadius = radius
			s, err := NewSolver(m, fluid.Uniform{}, ps, params)
			if err != nil {
				t.Fatal(err)
			}
			s.Particles.Pos[len(pos)/2].Y = math.NaN()
			for _, workers := range []int{1, 3} {
				s.project(workers)
				got := slices.Clone(s.proj)
				oracleProject(s, workers)
				for e, want := range s.proj {
					if !sameBits(got[e], want) {
						t.Fatalf("grid %d (%d×%d×%d), radius %g cells, %d workers: element %d got %v, oracle %v",
							gi, gs.nx, gs.ny, gs.nz, widths, workers, e, got[e], want)
					}
					nanSeen = nanSeen || math.IsNaN(want)
				}
			}
		}
	}
	if !nanSeen {
		t.Error("no case deposited the NaN particle's weights; the NaN probe checked nothing")
	}
}

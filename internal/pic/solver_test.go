package pic

import (
	"math"
	"runtime"
	"slices"
	"testing"

	"picpredict/internal/fluid"
	"picpredict/internal/geom"
	"picpredict/internal/mesh"
	"picpredict/internal/particle"
)

func baseParams() Params {
	return Params{
		Dt:              0.01,
		FilterRadius:    0.3,
		Mu:              1.8e-5,
		Pusher:          PushEuler,
		WallRestitution: 1,
	}
}

func solverFixture(t *testing.T, flow fluid.Flow, params Params) *Solver {
	t.Helper()
	m, err := mesh.New(geom.Box(geom.V(0, 0, 0), geom.V(4, 4, 4)), 4, 4, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	ps := particle.New(1)
	ps.Add(0, geom.V(2, 2, 2), geom.Vec3{}, 1e-4, 1000)
	s, err := NewSolver(m, flow, ps, params)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestParamsValidate(t *testing.T) {
	good := baseParams()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Params{
		func() Params { p := good; p.Dt = 0; return p }(),
		func() Params { p := good; p.FilterRadius = -1; return p }(),
		func() Params { p := good; p.Mu = 0; return p }(),
		func() Params { p := good; p.WallRestitution = 2; return p }(),
		func() Params { p := good; p.Collisions = true; p.CollisionStiffness = 0; return p }(),
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad params %d accepted", i)
		}
	}
}

func TestNewSolverRejectsOutsideParticles(t *testing.T) {
	m, err := mesh.New(geom.Box(geom.V(0, 0, 0), geom.V(1, 1, 1)), 2, 2, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	ps := particle.New(1)
	ps.Add(0, geom.V(5, 0, 0), geom.Vec3{}, 1e-4, 1000)
	if _, err := NewSolver(m, fluid.Uniform{}, ps, baseParams()); err == nil {
		t.Error("particle outside domain accepted")
	}
}

func TestParticleRelaxesToFluidVelocity(t *testing.T) {
	// In a uniform flow with no gravity, drag drives the particle to the
	// gas velocity exponentially with time constant τ_p.
	u := geom.V(0.5, 0, 0)
	s := solverFixture(t, fluid.Uniform{U: u}, baseParams())
	tau := s.Particles.Density[0] * s.Particles.Diameter[0] * s.Particles.Diameter[0] / (18 * s.Params.Mu)
	steps := int(5 * tau / s.Params.Dt) // five time constants
	if steps > 50000 {
		t.Fatalf("fixture too stiff: %d steps needed", steps)
	}
	s.Run(steps, nil)
	if got := s.Particles.Vel[0].Sub(u).Norm(); got > 0.02*u.Norm() {
		t.Errorf("particle velocity %v has not relaxed to %v", s.Particles.Vel[0], u)
	}
	if s.Particles.Pos[0].X <= 2 {
		t.Errorf("particle did not move downstream: %v", s.Particles.Pos[0])
	}
}

func TestPusherOrderEulerVsRK2(t *testing.T) {
	// In a vortex, exact motion preserves the distance to the axis. RK2
	// must lose radius far more slowly than Euler at the same dt.
	radiusError := func(k PusherKind) float64 {
		p := baseParams()
		p.Pusher = k
		p.Dt = 0.02
		m, err := mesh.New(geom.Box(geom.V(-2, -2, -2), geom.V(2, 2, 2)), 4, 4, 4, 4)
		if err != nil {
			t.Fatal(err)
		}
		ps := particle.New(1)
		// Tracer-like particle: tiny τ so it follows the gas closely.
		ps.Add(0, geom.V(1, 0, 0), geom.V(0, 1, 0), 1e-5, 10)
		s, err := NewSolver(m, fluid.Vortex{Omega: 1}, ps, p)
		if err != nil {
			t.Fatal(err)
		}
		s.Run(int(math.Pi/p.Dt), nil) // half revolution
		r := ps.Pos[0].Norm()
		return math.Abs(r - 1)
	}
	eul, rk2 := radiusError(PushEuler), radiusError(PushRK2)
	if rk2 >= eul {
		t.Errorf("RK2 radius error %v not better than Euler %v", rk2, eul)
	}
}

func TestGravityBallistics(t *testing.T) {
	// A very heavy particle in vacuum-like gas (huge τ) must fall nearly
	// ballistically: Δy ≈ −g t²/2.
	p := baseParams()
	p.Gravity = geom.V(0, -9.8, 0)
	p.Dt = 0.001
	m, err := mesh.New(geom.Box(geom.V(0, 0, 0), geom.V(10, 10, 10)), 2, 2, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	ps := particle.New(1)
	ps.Add(0, geom.V(5, 9, 5), geom.Vec3{}, 0.05, 1e7) // big dense: τ huge
	s, err := NewSolver(m, fluid.Uniform{}, ps, p)
	if err != nil {
		t.Fatal(err)
	}
	steps := 500 // t = 0.5
	s.Run(steps, nil)
	tt := 0.5
	wantDy := -9.8 * tt * tt / 2
	gotDy := ps.Pos[0].Y - 9
	if math.Abs(gotDy-wantDy) > 0.02*math.Abs(wantDy) {
		t.Errorf("Δy = %v, want ≈ %v", gotDy, wantDy)
	}
}

func TestWallBounceKeepsParticlesInside(t *testing.T) {
	p := baseParams()
	p.Dt = 0.05
	p.WallRestitution = 0.5
	m, err := mesh.New(geom.Box(geom.V(0, 0, 0), geom.V(1, 1, 1)), 2, 2, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	ps := particle.New(1)
	ps.Add(0, geom.V(0.9, 0.5, 0.5), geom.V(5, 0, 0), 1e-4, 1e7)
	s, err := NewSolver(m, fluid.Uniform{}, ps, p)
	if err != nil {
		t.Fatal(err)
	}
	dom := m.Domain()
	for i := 0; i < 200; i++ {
		s.Step()
		if !dom.ContainsClosed(ps.Pos[0]) {
			t.Fatalf("step %d: particle escaped to %v", i, ps.Pos[0])
		}
	}
}

func TestProjectionConservesVolume(t *testing.T) {
	s := solverFixture(t, fluid.Uniform{}, baseParams())
	ps := s.Particles
	ps.Add(1, geom.V(0.2, 0.2, 0.2), geom.Vec3{}, 2e-4, 500) // near corner
	s.proj = make([]float64, s.Mesh.NumElements())
	s.Step()
	total := 0.0
	for _, v := range s.Projection() {
		total += v
	}
	want := ps.Mass(0)/ps.Density[0] + ps.Mass(1)/ps.Density[1]
	if math.Abs(total-want) > 1e-15+1e-9*want {
		t.Errorf("projected volume %v, want %v", total, want)
	}

	// At filter 0 a particle on the high face of a 49×49 unit mesh, where
	// lo + d·n rounds below 1, deposits into the last element.
	m, err := mesh.New(geom.Box(geom.V(0, 0, 0), geom.V(1, 1, 0.01)), 49, 49, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	ps = particle.New(2)
	ps.Add(0, geom.V(1, 0.5, 0.005), geom.Vec3{}, 1e-4, 1000)
	ps.Add(1, geom.V(0.5, 0.5, 0.005), geom.Vec3{}, 1e-4, 1000)
	p := baseParams()
	p.FilterRadius = 0
	s, err = NewSolver(m, fluid.Uniform{}, ps, p)
	if err != nil {
		t.Fatal(err)
	}
	s.Step()
	total = 0
	for _, v := range s.Projection() {
		total += v
	}
	want = ps.Mass(0)/ps.Density[0] + ps.Mass(1)/ps.Density[1]
	if math.Abs(total-want) > 1e-15+1e-9*want {
		t.Errorf("49×49 mesh, face particle at filter 0: projected volume %v, want %v", total, want)
	}
}

func TestProjectionZeroFilterDepositsHome(t *testing.T) {
	p := baseParams()
	p.FilterRadius = 0
	s := solverFixture(t, fluid.Uniform{}, p)
	s.Step()
	nonZero := 0
	for _, v := range s.Projection() {
		if v > 0 {
			nonZero++
		}
	}
	if nonZero != 1 {
		t.Errorf("zero-filter projection touched %d elements, want 1", nonZero)
	}
}

func TestCreateGhostParticles(t *testing.T) {
	p := baseParams()
	p.FilterRadius = 0.6
	m, err := mesh.New(geom.Box(geom.V(0, 0, 0), geom.V(4, 4, 1)), 4, 4, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	d, err := mesh.Decompose(m, 4)
	if err != nil {
		t.Fatal(err)
	}
	ps := particle.New(2)
	// Particle at the very centre: its 0.6 ball crosses all four quadrants.
	ps.Add(0, geom.V(2, 2, 0.5), geom.Vec3{}, 1e-4, 1000)
	// Particle deep inside one quadrant: no ghosts.
	ps.Add(1, geom.V(0.7, 0.7, 0.5), geom.Vec3{}, 1e-4, 1000)
	s, err := NewSolver(m, fluid.Uniform{}, ps, p)
	if err != nil {
		t.Fatal(err)
	}
	perRank, total := s.CreateGhostParticles(d)
	if total != 3 {
		t.Errorf("total ghosts = %d, want 3 (centre particle on 3 foreign ranks)", total)
	}
	sum := 0
	for _, c := range perRank {
		sum += c
	}
	if sum != total {
		t.Errorf("perRank sum %d != total %d", sum, total)
	}
}

func TestRunObserveCallback(t *testing.T) {
	s := solverFixture(t, fluid.Uniform{}, baseParams())
	var steps []int
	s.Run(3, func(step int) { steps = append(steps, step) })
	if len(steps) != 3 || steps[0] != 1 || steps[2] != 3 {
		t.Errorf("observe steps = %v", steps)
	}
	if s.StepCount() != 3 {
		t.Errorf("StepCount = %d", s.StepCount())
	}
	if math.Abs(s.Time()-3*s.Params.Dt) > 1e-12 {
		t.Errorf("Time = %v", s.Time())
	}
}

func TestCollisionsSeparateOverlappingPair(t *testing.T) {
	p := baseParams()
	p.Collisions = true
	p.CollisionStiffness = 1e-3
	p.Dt = 0.001
	m, err := mesh.New(geom.Box(geom.V(0, 0, 0), geom.V(1, 1, 1)), 2, 2, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	ps := particle.New(2)
	ps.Add(0, geom.V(0.49, 0.5, 0.5), geom.Vec3{}, 0.05, 100)
	ps.Add(1, geom.V(0.51, 0.5, 0.5), geom.Vec3{}, 0.05, 100)
	s, err := NewSolver(m, fluid.Uniform{}, ps, p)
	if err != nil {
		t.Fatal(err)
	}
	d0 := ps.Pos[1].Sub(ps.Pos[0]).Norm()
	s.Run(100, nil)
	d1 := ps.Pos[1].Sub(ps.Pos[0]).Norm()
	if d1 <= d0 {
		t.Errorf("overlapping particles did not separate: %v -> %v", d0, d1)
	}
}

func TestParallelSolverMatchesSerial(t *testing.T) {
	run := func(workers int, pusher PusherKind) *particle.Set {
		m, err := mesh.New(geom.Box(geom.V(0, 0, 0), geom.V(1, 1, 0.01)), 16, 16, 1, 4)
		if err != nil {
			t.Fatal(err)
		}
		ps := particle.New(500)
		for i := 0; i < 500; i++ {
			x := 0.3 + 0.4*float64(i%25)/25
			y := 0.3 + 0.4*float64(i/25)/20
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
		flow := &fluid.DiaphragmBurst{Origin: geom.V(0.5, 0.5, 0), Amp: 0.002, Decay: 1, Core: 0.05}
		s, err := NewSolver(m, flow, ps, params)
		if err != nil {
			t.Fatal(err)
		}
		s.Run(25, nil)
		return ps
	}
	for _, pusher := range []PusherKind{PushEuler, PushRK2} {
		serial := run(1, pusher)
		parallel := run(4, pusher)
		for i := 0; i < serial.Len(); i++ {
			if serial.Pos[i] != parallel.Pos[i] || serial.Vel[i] != parallel.Vel[i] {
				t.Fatalf("%v: particle %d differs: %v vs %v", pusher, i, serial.Pos[i], parallel.Pos[i])
			}
		}
	}
}

func TestParallelProjectionConservesVolume(t *testing.T) {
	m, err := mesh.New(geom.Box(geom.V(0, 0, 0), geom.V(1, 1, 0.01)), 8, 8, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	ps := particle.New(200)
	for i := 0; i < 200; i++ {
		ps.Add(int64(i), geom.V(0.1+0.8*float64(i)/200, 0.5, 0.005), geom.Vec3{}, 1e-4, 1000)
	}
	p := baseParams()
	p.FilterRadius = 0.05
	p.Workers = 3
	s, err := NewSolver(m, fluid.Uniform{}, ps, p)
	if err != nil {
		t.Fatal(err)
	}
	s.Step()
	total := 0.0
	for _, v := range s.Projection() {
		total += v
	}
	want := 0.0
	for i := 0; i < ps.Len(); i++ {
		want += ps.Mass(i) / ps.Density[i]
	}
	if math.Abs(total-want) > 1e-12*want {
		t.Errorf("parallel projected volume %v, want %v", total, want)
	}
}

func TestStepInstrumentedMatchesStep(t *testing.T) {
	build := func() *Solver {
		m, err := mesh.New(geom.Box(geom.V(0, 0, 0), geom.V(1, 1, 0.01)), 16, 16, 1, 4)
		if err != nil {
			t.Fatal(err)
		}
		ps := particle.New(300)
		for i := 0; i < 300; i++ {
			ps.Add(int64(i), geom.V(0.3+0.4*float64(i%20)/20, 0.3+0.4*float64(i/20)/15, 0.005),
				geom.Vec3{}, 1e-4, 1200)
		}
		p := baseParams()
		p.FilterRadius = 0.02
		p.Collisions = true
		p.CollisionStiffness = 1e-5
		flow := &fluid.DiaphragmBurst{Origin: geom.V(0.5, 0.5, 0), Amp: 0.002, Decay: 1, Core: 0.05}
		s, err := NewSolver(m, flow, ps, p)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	plain := build()
	inst := build()
	for step := 0; step < 10; step++ {
		plain.Step()
		timings := inst.StepInstrumented()
		if timings.Interpolation < 0 || timings.Projection < 0 {
			t.Fatal("negative timing")
		}
		for i := 0; i < plain.Particles.Len(); i++ {
			if plain.Particles.Pos[i] != inst.Particles.Pos[i] || plain.Particles.Vel[i] != inst.Particles.Vel[i] {
				t.Fatalf("step %d particle %d: instrumented state diverged", step, i)
			}
		}
	}
	// Projection fields agree too.
	for e := range plain.Projection() {
		if math.Abs(plain.Projection()[e]-inst.Projection()[e]) > 1e-18 {
			t.Fatalf("projection field diverged at element %d", e)
		}
	}
	if plain.StepCount() != inst.StepCount() || plain.Time() != inst.Time() {
		t.Error("clock/step mismatch")
	}
}

func TestTimedCreateGhostParticles(t *testing.T) {
	s := solverFixture(t, fluid.Uniform{}, baseParams())
	d, err := mesh.Decompose(s.Mesh, 8)
	if err != nil {
		t.Fatal(err)
	}
	perRank, total, elapsed := s.TimedCreateGhostParticles(d)
	wantRank, wantTotal := s.CreateGhostParticles(d)
	if total != wantTotal || elapsed < 0 {
		t.Errorf("timed ghosts: %d vs %d, %v", total, wantTotal, elapsed)
	}
	for r := range perRank {
		if perRank[r] != wantRank[r] {
			t.Errorf("rank %d: %d vs %d", r, perRank[r], wantRank[r])
		}
	}
}

func TestPusherKindString(t *testing.T) {
	if PushEuler.String() != "euler" || PushRK2.String() != "rk2" {
		t.Errorf("pusher strings: %q, %q", PushEuler, PushRK2)
	}
	if s := PusherKind(7).String(); s != "PusherKind(7)" {
		t.Errorf("unknown pusher string %q", s)
	}
}

// TestCreateGhostParticlesAllocs: a repeated ghost query against the same
// decomposition reuses the solver's owner query, home ranks and rank lists,
// so it allocates only the returned per-rank counts, and those still equal
// the oracle's.
func TestCreateGhostParticlesAllocs(t *testing.T) {
	s := tiledFixture(t, 0, PushEuler, false)
	s.Params.FilterRadius = 0.08
	d, err := mesh.Decompose(s.Mesh, 8)
	if err != nil {
		t.Fatal(err)
	}
	var perRank []int
	var total int
	if allocs := testing.AllocsPerRun(10, func() { perRank, total = s.CreateGhostParticles(d) }); allocs > 1 {
		t.Errorf("CreateGhostParticles allocates %v times per call, want at most 1 (perRank)", allocs)
	}
	wantRanks, wantTotal := oracleGhosts(s, d)
	if total != wantTotal || !slices.Equal(perRank, wantRanks) {
		t.Errorf("ghost counts %v (total %d), oracle %v (total %d)", perRank, total, wantRanks, wantTotal)
	}
}

// TestStepSteadyStateAllocs: once the interpolator's nodal slab, the
// tiling and the projection scratch have grown, a serial Step with
// collisions off allocates less than 1 KB, for either pusher.
func TestStepSteadyStateAllocs(t *testing.T) {
	for _, pusher := range []PusherKind{PushEuler, PushRK2} {
		s := tiledFixture(t, 0, pusher, false)
		s.Run(5, nil)
		const steps = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s.Run(steps, nil)
		runtime.ReadMemStats(&after)
		if perStep := (after.TotalAlloc - before.TotalAlloc) / steps; perStep >= 1024 {
			t.Errorf("%v: steady-state Step allocates %d B, want under 1 KB", pusher, perStep)
		}
	}
}

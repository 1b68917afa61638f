package pic

import (
	"math"
	"math/rand"
	"testing"

	"picpredict/internal/geom"
	"picpredict/internal/particle"
)

func TestColliderNoOverlapNoForce(t *testing.T) {
	s := particle.New(2)
	s.Add(0, geom.V(0, 0, 0), geom.Vec3{}, 0.1, 1000)
	s.Add(1, geom.V(1, 0, 0), geom.Vec3{}, 0.1, 1000)
	c := newCollider()
	acc := c.Forces(s, 100)
	for i, a := range acc {
		if a != (geom.Vec3{}) {
			t.Errorf("particle %d acc = %v, want zero", i, a)
		}
	}
}

func TestColliderOverlapRepels(t *testing.T) {
	s := particle.New(2)
	s.Add(0, geom.V(0, 0, 0), geom.Vec3{}, 0.2, 1000)
	s.Add(1, geom.V(0.1, 0, 0), geom.Vec3{}, 0.2, 1000) // overlap 0.1
	c := newCollider()
	acc := c.Forces(s, 50)
	if acc[0].X >= 0 {
		t.Errorf("particle 0 pushed toward 1: %v", acc[0])
	}
	if acc[1].X <= 0 {
		t.Errorf("particle 1 pushed toward 0: %v", acc[1])
	}
	// Newton's third law in force terms: m0·a0 = −m1·a1.
	f0 := acc[0].Scale(s.Mass(0))
	f1 := acc[1].Scale(s.Mass(1))
	if f0.Add(f1).Norm() > 1e-12 {
		t.Errorf("forces not balanced: %v vs %v", f0, f1)
	}
	// Magnitude: stiffness × overlap.
	wantF := 50 * 0.1
	if got := f1.Norm(); math.Abs(got-wantF) > 1e-9 {
		t.Errorf("force magnitude = %v, want %v", got, wantF)
	}
}

func TestColliderCoincidentParticlesNoNaN(t *testing.T) {
	s := particle.New(2)
	s.Add(0, geom.V(1, 1, 1), geom.Vec3{}, 0.2, 1000)
	s.Add(1, geom.V(1, 1, 1), geom.Vec3{}, 0.2, 1000)
	c := newCollider()
	acc := c.Forces(s, 50)
	for i, a := range acc {
		if math.IsNaN(a.Norm()) {
			t.Errorf("particle %d acc is NaN", i)
		}
	}
}

func TestColliderMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	s := particle.New(60)
	for i := 0; i < 60; i++ {
		s.Add(int64(i),
			geom.V(rng.Float64(), rng.Float64(), rng.Float64()),
			geom.Vec3{}, 0.12, 800)
	}
	c := newCollider()
	got := c.Forces(s, 30)

	want := make([]geom.Vec3, s.Len())
	for i := 0; i < s.Len(); i++ {
		for j := i + 1; j < s.Len(); j++ {
			d := s.Pos[j].Sub(s.Pos[i])
			touch := (s.Diameter[i] + s.Diameter[j]) / 2
			dist := d.Norm()
			if dist >= touch || dist == 0 {
				continue
			}
			f := d.Scale(1 / dist).Scale(30 * (touch - dist))
			want[i] = want[i].Sub(f.Scale(1 / s.Mass(i)))
			want[j] = want[j].Add(f.Scale(1 / s.Mass(j)))
		}
	}
	for i := range want {
		if got[i].Sub(want[i]).Norm() > 1e-9*(1+want[i].Norm()) {
			t.Errorf("particle %d: grid %v brute %v", i, got[i], want[i])
		}
	}
}

// TestColliderMatchesOracle checks the cell-list broad phase against the
// map oracle, bit for bit, on random sets with negative coordinates and
// coincident particles. One collider serves every set, so its buffers are
// reused across growing and shrinking populations.
func TestColliderMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	c := newCollider()
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(400)
		s := particle.New(n)
		side := 0.2 + rng.Float64()*2
		for i := 0; i < n; i++ {
			p := geom.V(side*(rng.Float64()-0.5), side*(rng.Float64()-0.5), side*(rng.Float64()-0.5)*0.1)
			if i > 0 && rng.Intn(8) == 0 {
				p = s.Pos[rng.Intn(i)] // coincident with an earlier particle
			}
			s.Add(int64(i), p, geom.Vec3{}, 0.01+0.1*rng.Float64(), 800+400*rng.Float64())
		}
		got := c.Forces(s, 30)
		want := oracleForces(s, 30)
		for i := range want {
			for a := 0; a < 3; a++ {
				if math.Float64bits(got[i].Axis(a)) != math.Float64bits(want[i].Axis(a)) {
					t.Fatalf("trial %d (n=%d): particle %d: got %v, oracle %v", trial, n, i, got[i], want[i])
				}
			}
		}
	}
}

// TestColliderStepAllocs pins the allocations of a steady-state step with
// collisions: the broad phase reuses its buffers, so Forces allocates
// nothing and the whole step at most once.
func TestColliderStepAllocs(t *testing.T) {
	s := tiledFixture(t, 0, PushEuler, true)
	s.Step()
	if allocs := testing.AllocsPerRun(5, func() { s.collide.Forces(s.Particles, s.Params.CollisionStiffness) }); allocs != 0 {
		t.Errorf("Forces made %v allocations per call, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(5, s.Step); allocs > 1 {
		t.Errorf("a step with collisions made %v allocations, want at most 1", allocs)
	}
}

func TestColliderNegativeCoordinates(t *testing.T) {
	// floorDiv must bin negative coordinates correctly; two touching
	// particles straddling the origin must interact.
	s := particle.New(2)
	s.Add(0, geom.V(-0.01, 0, 0), geom.Vec3{}, 0.1, 1000)
	s.Add(1, geom.V(0.01, 0, 0), geom.Vec3{}, 0.1, 1000)
	c := newCollider()
	acc := c.Forces(s, 10)
	if acc[0] == (geom.Vec3{}) || acc[1] == (geom.Vec3{}) {
		t.Error("particles straddling origin did not interact")
	}
}

func TestColliderEmptySet(t *testing.T) {
	c := newCollider()
	if acc := c.Forces(particle.New(0), 10); len(acc) != 0 {
		t.Errorf("empty set returned %d accelerations", len(acc))
	}
}

func TestFloorDiv(t *testing.T) {
	cases := []struct {
		x, d float64
		want int
	}{
		{0.5, 1, 0}, {1.5, 1, 1}, {-0.5, 1, -1}, {-1, 1, -1}, {2, 1, 2}, {-2.5, 1, -3},
	}
	for _, c := range cases {
		if got := floorDiv(c.x, c.d); got != c.want {
			t.Errorf("floorDiv(%v, %v) = %d, want %d", c.x, c.d, got, c.want)
		}
	}
}

package mapping

import (
	"math/rand"
	"testing"

	"picpredict/internal/geom"
	"picpredict/internal/mesh"
)

func weightedFixture(t *testing.T, ranks int) (*mesh.Mesh, *DynamicMapper) {
	t.Helper()
	m, err := mesh.New(geom.Box(geom.V(0, 0, 0), geom.V(1, 1, 0.01)), 16, 16, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	return m, NewWeightedMapper(m, ranks)
}

func TestWeightedMapperBasics(t *testing.T) {
	m, wm := weightedFixture(t, 4)
	if wm.Ranks() != 4 {
		t.Fatalf("Ranks = %d, want 4", wm.Ranks())
	}
	if err := wm.Assign(make([]int, 1), make([]geom.Vec3, 2)); err == nil {
		t.Error("length mismatch accepted")
	}
	if err := NewWeightedMapper(m, 0).Assign(make([]int, 1), make([]geom.Vec3, 1)); err == nil {
		t.Error("zero ranks accepted")
	}
}

func TestWeightedMapperBalancesClusteredLoad(t *testing.T) {
	// All particles in one corner: element mapping would put them on one
	// rank; weighted mapping shrinks that rank's element share instead.
	_, wm := weightedFixture(t, 8)
	pos := randomCloud(4000, 17, geom.Box(geom.V(0, 0, 0), geom.V(0.12, 0.12, 0.01)))
	dst := make([]int, len(pos))
	if err := wm.Assign(dst, pos); err != nil {
		t.Fatal(err)
	}
	counts := make([]int, 8)
	for _, r := range dst {
		if r < 0 || r >= 8 {
			t.Fatalf("rank %d out of range", r)
		}
		counts[r]++
	}
	maxC := 0
	for _, c := range counts {
		if c > maxC {
			maxC = c
		}
	}
	// Not perfectly balanced (grid weight + element granularity), but far
	// below the all-on-one-rank 4000.
	if maxC > 1600 {
		t.Errorf("peak %d of 4000; weighted mapping did not balance", maxC)
	}
}

func TestWeightedMapperLocality(t *testing.T) {
	// Same-element particles always share a rank.
	_, wm := weightedFixture(t, 4)
	pos := []geom.Vec3{
		{X: 0.01, Y: 0.01, Z: 0.005},
		{X: 0.05, Y: 0.05, Z: 0.005}, // same element (1/16 = 0.0625 wide)
	}
	dst := make([]int, 2)
	if err := wm.Assign(dst, pos); err != nil {
		t.Fatal(err)
	}
	if dst[0] != dst[1] {
		t.Errorf("same-element particles on ranks %v", dst)
	}
}

// An epoch is a frame whose drained migrations are non-empty: the initial
// cut installs without migrating, an unchanged frame keeps the cut, and a
// relocated cloud forces a re-cut that moves elements.
func TestWeightedMapperLazyRebalance(t *testing.T) {
	_, wm := weightedFixture(t, 8)
	dst := make([]int, 2000)
	epochs := 0
	assign := func(pos []geom.Vec3) {
		t.Helper()
		if err := wm.Assign(dst, pos); err != nil {
			t.Fatal(err)
		}
		if len(wm.DrainMigrations()) > 0 {
			epochs++
		}
	}
	cloudA := randomCloud(2000, 18, geom.Box(geom.V(0, 0, 0), geom.V(0.2, 0.2, 0.01)))
	assign(cloudA)
	if epochs != 0 {
		t.Fatalf("initial build counted %d epochs, want 0", epochs)
	}
	// Nearly identical frame: partition reused, no rebalance.
	assign(cloudA)
	if epochs != 0 {
		t.Errorf("unchanged frame triggered rebalance (%d)", epochs)
	}
	// The cloud jumps to the opposite corner: the stale partition
	// concentrates load, forcing a rebalance.
	cloudB := randomCloud(2000, 19, geom.Box(geom.V(0.8, 0.8, 0), geom.V(1, 1, 0.01)))
	assign(cloudB)
	if epochs != 1 {
		t.Errorf("relocated cloud gave %d epochs, want 1", epochs)
	}
}

func TestWeightedMapperCoversAllRanks(t *testing.T) {
	// With uniform particles, every rank receives elements and particles.
	_, wm := weightedFixture(t, 8)
	pos := randomCloud(4000, 20, geom.Box(geom.V(0, 0, 0), geom.V(1, 1, 0.01)))
	dst := make([]int, len(pos))
	if err := wm.Assign(dst, pos); err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for _, r := range dst {
		seen[r] = true
	}
	if len(seen) != 8 {
		t.Errorf("only %d of 8 ranks busy under uniform load", len(seen))
	}
}

// driftingClouds returns frames of np particles in a few Gaussian clusters
// whose centres drift across box from frame to frame, some of them out of
// it (Home clamps those onto the domain).
func driftingClouds(rng *rand.Rand, box geom.AABB, frames, np int) [][]geom.Vec3 {
	e := box.Extent()
	type cluster struct{ c, v geom.Vec3 }
	cl := make([]cluster, 1+rng.Intn(4))
	for i := range cl {
		cl[i].c = box.Lo.Add(geom.V(rng.Float64()*e.X, rng.Float64()*e.Y, rng.Float64()*e.Z))
		cl[i].v = geom.V(rng.NormFloat64()*e.X, rng.NormFloat64()*e.Y, rng.NormFloat64()*e.Z).Scale(0.08)
	}
	spread := 0.02 + 0.1*rng.Float64()
	out := make([][]geom.Vec3, frames)
	for f := range out {
		pos := make([]geom.Vec3, np)
		for i := range pos {
			k := cl[i%len(cl)]
			pos[i] = k.c.Add(k.v.Scale(float64(f))).Add(geom.V(
				rng.NormFloat64()*spread*e.X, rng.NormFloat64()*spread*e.Y, rng.NormFloat64()*spread*e.Z))
		}
		out[f] = pos
	}
	return out
}

// TestWeightedMatchesOracle drives the weighted DynamicMapper and the
// standalone mapper it replaced (oracleWeighted) through the same frames:
// every frame's assignment and drained migrations must be equal.
func TestWeightedMatchesOracle(t *testing.T) {
	frames, epochs := 0, 0
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nx, ny, nz := 1+rng.Intn(12), 1+rng.Intn(12), 1+rng.Intn(3)
		box := geom.Box(geom.V(0, 0, 0), geom.V(0.5+rng.Float64(), 0.5+rng.Float64(), 0.1+rng.Float64()))
		// N = 5 and 10 give grid loads of exactly 1.25 and 10, so element
		// weights can sum onto a chunk target exactly.
		m, err := mesh.New(box, nx, ny, nz, []int{1, 2, 3, 4, 5, 10}[rng.Intn(6)])
		if err != nil {
			t.Fatal(err)
		}
		ranks := 1 + rng.Intn(2*m.NumElements())
		got, want := NewWeightedMapper(m, ranks), newOracleWeighted(m, ranks)
		clouds := driftingClouds(rng, box, 8+rng.Intn(8), 20+rng.Intn(1500))
		for f, pos := range clouds {
			gotDst, wantDst := make([]int, len(pos)), make([]int, len(pos))
			if err := got.Assign(gotDst, pos); err != nil {
				t.Fatal(err)
			}
			if err := want.Assign(wantDst, pos); err != nil {
				t.Fatal(err)
			}
			for i := range gotDst {
				if gotDst[i] != wantDst[i] {
					t.Fatalf("seed %d (%d×%d×%d, R=%d) frame %d: particle %d on rank %d, oracle %d",
						seed, nx, ny, nz, ranks, f, i, gotDst[i], wantDst[i])
				}
			}
			gotMig, wantMig := got.DrainMigrations(), want.DrainMigrations()
			if len(gotMig) != len(wantMig) {
				t.Fatalf("seed %d frame %d: %d migrations, oracle %d", seed, f, len(gotMig), len(wantMig))
			}
			for i := range gotMig {
				if gotMig[i] != wantMig[i] {
					t.Fatalf("seed %d frame %d: migration %d is %+v, oracle %+v", seed, f, i, gotMig[i], wantMig[i])
				}
			}
			frames++
			if len(gotMig) > 0 {
				epochs++
			}
		}
	}
	// The clouds must drift far enough to make the trigger fire.
	if epochs == 0 {
		t.Fatalf("no epoch in %d frames", frames)
	}
	t.Logf("%d frames compared, %d of them epochs", frames, epochs)
}

package mapping

import (
	"testing"

	"picpredict/internal/geom"
	"picpredict/internal/mesh"
)

func helperFixture(t *testing.T, ranks int) *HelperMapper {
	t.Helper()
	m, err := mesh.New(geom.Box(geom.V(0, 0, 0), geom.V(1, 1, 0.01)), 16, 16, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	d, err := mesh.Decompose(m, ranks)
	if err != nil {
		t.Fatal(err)
	}
	return NewHelperMapper(m, d)
}

func TestHelperMapperMetadata(t *testing.T) {
	hm := helperFixture(t, 8)
	if hm.Ranks() != 8 {
		t.Errorf("Ranks = %d, want 8", hm.Ranks())
	}
	if err := hm.Assign(make([]int, 2), make([]geom.Vec3, 1)); err == nil {
		t.Error("length mismatch accepted")
	}
	if err := hm.Assign(nil, nil); err != nil {
		t.Errorf("empty frame rejected: %v", err)
	}
}

func TestHelperMapperBoundsLoad(t *testing.T) {
	// Everything clustered in one corner: plain element mapping loads one
	// rank with all 4000; helpers cap every rank near the average.
	hm := helperFixture(t, 8)
	pos := randomCloud(4000, 41, geom.Box(geom.V(0, 0, 0), geom.V(0.1, 0.1, 0.01)))
	dst := make([]int, len(pos))
	if err := hm.Assign(dst, pos); err != nil {
		t.Fatal(err)
	}
	counts := make([]int, 8)
	for _, r := range dst {
		if r < 0 || r >= 8 {
			t.Fatalf("rank %d out of range", r)
		}
		counts[r]++
	}
	capPerRank := 500 + int(0.1*500) // target + slack
	for r, c := range counts {
		if c > capPerRank {
			t.Errorf("rank %d holds %d > capacity %d", r, c, capPerRank)
		}
	}
	if hm.HelpersEngaged == 0 {
		t.Error("no helpers engaged for a fully clustered bed")
	}
}

func TestHelperMapperKeepsLocalityWhenBalanced(t *testing.T) {
	// A uniform population needs no helpers: assignment equals plain
	// element mapping.
	hm := helperFixture(t, 8)
	em := NewElementMapper(hm.Mesh, hm.Decomp)
	pos := randomCloud(4000, 42, geom.Box(geom.V(0, 0, 0), geom.V(1, 1, 0.01)))
	got := make([]int, len(pos))
	want := make([]int, len(pos))
	if err := hm.Assign(got, pos); err != nil {
		t.Fatal(err)
	}
	if err := em.Assign(want, pos); err != nil {
		t.Fatal(err)
	}
	moved := 0
	for i := range got {
		if got[i] != want[i] {
			moved++
		}
	}
	// Uniform random load still fluctuates a little above capacity on a
	// few ranks; the overwhelming majority must stay home.
	if float64(moved) > 0.05*float64(len(pos)) {
		t.Errorf("%d of %d particles exported under balanced load", moved, len(pos))
	}
}

func TestHelperMapperConservesParticles(t *testing.T) {
	hm := helperFixture(t, 16)
	pos := randomCloud(1000, 43, geom.Box(geom.V(0, 0, 0), geom.V(0.3, 0.3, 0.01)))
	dst := make([]int, len(pos))
	if err := hm.Assign(dst, pos); err != nil {
		t.Fatal(err)
	}
	total := 0
	counts := make([]int, 16)
	for _, r := range dst {
		counts[r]++
		total++
	}
	if total != 1000 {
		t.Errorf("assigned %d of 1000", total)
	}
}

func TestHelperMapperDeterministic(t *testing.T) {
	a := helperFixture(t, 8)
	b := helperFixture(t, 8)
	pos := randomCloud(2000, 44, geom.Box(geom.V(0, 0, 0), geom.V(0.2, 0.2, 0.01)))
	da, db := make([]int, len(pos)), make([]int, len(pos))
	if err := a.Assign(da, pos); err != nil {
		t.Fatal(err)
	}
	if err := b.Assign(db, pos); err != nil {
		t.Fatal(err)
	}
	for i := range da {
		if da[i] != db[i] {
			t.Fatalf("non-deterministic at %d", i)
		}
	}
}

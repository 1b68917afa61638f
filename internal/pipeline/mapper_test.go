package pipeline_test

import (
	"math/rand"
	"strings"
	"testing"

	"picpredict/internal/core"
	"picpredict/internal/geom"
	"picpredict/internal/pipeline"
)

// TestGhostMatricesFollowMapper pins which mappings produce ghost matrices
// at a positive filter: exactly the ones whose mapper answers concurrent
// ghost queries (bin, element, element under a rebalance policy, and
// weighted, which is element mapping under its own policy). The
// generator detects the ghost source from the mapper, so a mapping that
// gains or loses one changes this table.
func TestGhostMatricesFollowMapper(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const np = 400
	frames := [][]geom.Vec3{make([]geom.Vec3, np), make([]geom.Vec3, np)}
	for i := 0; i < np; i++ {
		p := geom.V(0.2+0.3*rng.Float64(), 0.2+0.3*rng.Float64(), 0.5)
		frames[0][i] = p
		frames[1][i] = geom.V(p.X+0.2*rng.Float64(), p.Y, p.Z)
	}
	for _, tc := range []struct {
		kind, rebalance string
		ghosts          bool
	}{
		{"bin", "", true},
		{"element", "", true},
		{"element", "threshold:1.5", true},
		{"hilbert", "", false},
		{"weighted", "", true},
		{"ohhelp", "", false},
	} {
		ms := pipeline.MapperSpec{
			Kind:         tc.kind,
			Ranks:        8,
			FilterRadius: 0.05,
			Rebalance:    tc.rebalance,
			Domain:       geom.Box(geom.V(0, 0, 0), geom.V(1, 1, 1)),
			Elements:     [3]int{8, 8, 1},
			N:            2,
		}
		gb, err := pipeline.NewGeneratorBuilder(ms, 2)
		if err != nil {
			t.Fatalf("%s %s: %v", tc.kind, tc.rebalance, err)
		}
		for k, f := range frames {
			if err := gb.Frame(k*10, f); err != nil {
				t.Fatalf("%s %s: frame %d: %v", tc.kind, tc.rebalance, k, err)
			}
		}
		wl, err := gb.Finish()
		if err != nil {
			t.Fatal(err)
		}
		if got := wl.GhostComp != nil && wl.GhostComm != nil; got != tc.ghosts {
			t.Errorf("%s %s: ghost matrices present = %v, want %v", tc.kind, tc.rebalance, got, tc.ghosts)
		}
	}
}

// TestMapperSpecRankCap: Build accepts rank counts up to core.MaxRanks and
// rejects anything past it with an error naming the limit, before any
// mapper state is sized by R.
func TestMapperSpecRankCap(t *testing.T) {
	ms := pipeline.MapperSpec{Kind: "bin", Ranks: core.MaxRanks, FilterRadius: 0.01}
	if _, _, err := ms.Build(); err != nil {
		t.Fatalf("Build at the cap: %v", err)
	}
	for _, r := range []int{core.MaxRanks + 1, 1 << 30} {
		ms.Ranks = r
		_, _, err := ms.Build()
		if err == nil || !strings.Contains(err.Error(), "exceeds the 4194304 limit") {
			t.Errorf("Build with %d ranks: %v, want an error naming the 4194304 limit", r, err)
		}
	}
}

package mapping_test

import (
	"math/rand"
	"reflect"
	"testing"

	"picpredict/internal/core"
	"picpredict/internal/geom"
	"picpredict/internal/mapping"
	"picpredict/internal/mesh"
)

// TestWeightedFrameZeroGhosts: at frame 0 the weighted mapping is element
// mapping over the owners of its first cut, so its workload — ghost matrices
// included — equals that of a static ElementMapper over mesh.FromOwner of
// those owners. A first cut installed for the assignment but not for the
// ghost queries would price ghosts on the static bisection instead.
func TestWeightedFrameZeroGhosts(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m, err := mesh.New(geom.Box(geom.V(0, 0, 0), geom.V(1, 1, 0.1)), 4+rng.Intn(12), 4+rng.Intn(12), 1, 2)
		if err != nil {
			t.Fatal(err)
		}
		ranks := 2 + rng.Intn(m.NumElements())
		// One dense corner cluster: the cut differs from the bisection.
		const np = 600
		pos := make([]geom.Vec3, np)
		for i := range pos {
			pos[i] = geom.V(0.3*rng.Float64(), 0.3*rng.Float64(), 0.1*rng.Float64())
		}
		wm := mapping.NewWeightedMapper(m, ranks)
		cfg := core.Config{Mapper: wm, FilterRadius: 0.08, Workers: 2}
		got, err := core.RunFrames(cfg, []int{0}, pos, np)
		if err != nil {
			t.Fatal(err)
		}
		d, err := mesh.FromOwner(m, ranks, wm.Decomposition().Owner)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Mapper = mapping.NewElementMapper(m, d)
		want, err := core.RunFrames(cfg, []int{0}, pos, np)
		if err != nil {
			t.Fatal(err)
		}
		if got.GhostComp == nil || want.GhostComp == nil {
			t.Fatalf("seed %d: ghost matrices missing (weighted %v, static %v)", seed, got.GhostComp != nil, want.GhostComp != nil)
		}
		if !reflect.DeepEqual(got.RealComp.Frame(0), want.RealComp.Frame(0)) {
			t.Errorf("seed %d: real computation differs", seed)
		}
		if !reflect.DeepEqual(got.GhostComp.Frame(0), want.GhostComp.Frame(0)) {
			t.Errorf("seed %d: ghost computation differs", seed)
		}
		if !reflect.DeepEqual(got.GhostComm.At(0).Entries(), want.GhostComm.At(0).Entries()) {
			t.Errorf("seed %d: ghost communication differs", seed)
		}
	}
}

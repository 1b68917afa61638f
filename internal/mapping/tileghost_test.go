package mapping

import (
	"math/rand"
	"sort"
	"testing"

	"picpredict/internal/geom"
	"picpredict/internal/mesh"
)

func sortedCopy(s []int) []int {
	out := append([]int{}, s...)
	sort.Ints(out)
	return out
}

// ghostSetsViaTile runs one GhostRanksTile call over all particles and
// splits the flat result back into per-particle sets.
func ghostSetsViaTile(src GhostSource, pos []geom.Vec3, home []int, radius float64) [][]int {
	ids := make([]int32, len(pos))
	for i := range ids {
		ids[i] = int32(i)
	}
	flat, offs := src.GhostRanksTile(nil, nil, ids, pos, home, radius)
	out := make([][]int, len(pos))
	prev := 0
	for j := range ids {
		end := int(offs[j])
		out[j] = append([]int{}, flat[prev:end]...)
		prev = end
	}
	return out
}

// TestGhostRanksTileMatchesScalar checks the GhostSource tile contract on
// both implementations: per-particle rank sets must equal the scalar
// GhostRanks sets exactly.
func TestGhostRanksTileMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	m, err := mesh.New(geom.Box(geom.V(0, 0, 0), geom.V(1, 1, 1)), 10, 10, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	d, err := mesh.Decompose(m, 12)
	if err != nil {
		t.Fatal(err)
	}

	for trial := 0; trial < 10; trial++ {
		np := 1 + rng.Intn(200)
		pos := make([]geom.Vec3, np)
		cx, cy := rng.Float64(), rng.Float64()
		for i := range pos {
			if i%11 == 10 {
				pos[i] = geom.V(rng.Float64(), rng.Float64(), 0)
			} else {
				pos[i] = geom.V(cx+0.08*rng.Float64(), cy+0.08*rng.Float64(), 0)
			}
		}
		radius := []float64{0, 0.02, 0.06}[trial%3]

		sources := map[string]GhostSource{
			"element": NewElementMapper(m, d),
		}
		bm := NewBinMapper(12, 0.03)
		home := make([]int, np)
		if err := bm.Assign(home, pos); err != nil {
			t.Fatal(err)
		}
		sources["bin"] = bm

		for name, src := range sources {
			homes := home
			if name == "element" {
				homes = make([]int, np)
				em := src.(*ElementMapper)
				if err := em.Assign(homes, pos); err != nil {
					t.Fatal(err)
				}
			}
			got := ghostSetsViaTile(src, pos, homes, radius)
			for i := range pos {
				want := sortedCopy(src.GhostRanks(nil, pos[i], radius, homes[i]))
				g := sortedCopy(got[i])
				if len(want) != len(g) {
					t.Fatalf("trial %d %s particle %d: scalar %v tile %v", trial, name, i, want, g)
				}
				for k := range want {
					if want[k] != g[k] {
						t.Fatalf("trial %d %s particle %d: scalar %v tile %v", trial, name, i, want, g)
					}
				}
			}
		}
	}
}

// TestBinGhostRanksNoAllocs pins the map→slice dedup rewrite of the scalar
// bin ghost query: a warm query allocates nothing per call.
func TestBinGhostRanksNoAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pos := make([]geom.Vec3, 4000)
	for i := range pos {
		pos[i] = geom.V(rng.Float64(), rng.Float64(), 0)
	}
	bm := NewBinMapper(64, 0.02)
	ranks := make([]int, len(pos))
	if err := bm.Assign(ranks, pos); err != nil {
		t.Fatal(err)
	}
	dst := make([]int, 0, 16)
	p := pos[0]
	bm.GhostRanks(dst, p, 0.05, ranks[0]) // build index + warm scratch
	allocs := testing.AllocsPerRun(100, func() {
		dst = bm.GhostRanks(dst[:0], p, 0.05, ranks[0])
	})
	if allocs != 0 {
		t.Fatalf("GhostRanks allocates %v times per op, want 0", allocs)
	}
}

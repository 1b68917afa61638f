package mapping

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"picpredict/internal/geom"
	"picpredict/internal/mesh"
	"picpredict/internal/tile"
)

func sortedCopy(s []int) []int {
	out := append([]int{}, s...)
	sort.Ints(out)
	return out
}

// ghostSetsViaTiles runs one GhostRanksTile call per tile and splits the
// flat results back into per-particle sets.
func ghostSetsViaTiles(src GhostSource, tiles [][]int32, pos []geom.Vec3, home []int, radius float64) [][]int {
	out := make([][]int, len(pos))
	for _, ids := range tiles {
		flat, offs := src.GhostRanksTile(nil, nil, ids, pos, home, radius)
		prev := 0
		for j, i := range ids {
			end := int(offs[j])
			out[i] = append([]int{}, flat[prev:end]...)
			prev = end
		}
	}
	return out
}

// TestGhostRanksTileMatchesScalar checks the GhostSource tile contract on
// both implementations: per-particle rank sets must equal the scalar
// GhostRanks sets exactly. Every trial queries one tile holding every
// particle and the 2r-cell tiles tile.Builder.Build makes, as the
// generator tiles a frame. The bin mappers cover one bin per rank, bins
// folded onto fewer ranks (between R and 2R bins), Relaxed bins with many
// bins per rank and R = 1: the paths where a tile's candidate ranks repeat.
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
	binMappers := []struct {
		name      string
		ranks     int
		threshold float64
		relaxed   bool
	}{
		{"bin", 12, 0.03, false},
		{"bin one per rank", 16, 0, false},
		{"bin folded", 12, 0, false},
		{"bin relaxed", 3, 0.01, true},
		{"bin R=1", 1, 0.03, false},
	}

	var tb tile.Builder
	for trial := 0; trial < 12; trial++ {
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
		all := make([]int32, np)
		for i := range all {
			all[i] = int32(i)
		}
		tl := tb.Build(pos, 2*radius, np+1)
		generatorTiles := make([][]int32, 0, tl.NumTiles())
		for k := 0; k < tl.NumTiles(); k++ {
			generatorTiles = append(generatorTiles, append([]int32{}, tl.Tile(k)...))
		}

		type source struct {
			name string
			src  GhostSource
			home []int
		}
		em := NewElementMapper(m, d)
		emHome := make([]int, np)
		if err := em.Assign(emHome, pos); err != nil {
			t.Fatal(err)
		}
		sources := []source{{"element", em, emHome}}
		for _, c := range binMappers {
			bm := NewBinMapper(c.ranks, c.threshold)
			bm.Relaxed = c.relaxed
			home := make([]int, np)
			if err := bm.Assign(home, pos); err != nil {
				t.Fatal(err)
			}
			sources = append(sources, source{c.name, bm, home})
		}

		for _, s := range sources {
			for _, tiling := range []struct {
				name  string
				tiles [][]int32
			}{{"one tile", [][]int32{all}}, {"2r tiles", generatorTiles}} {
				got := ghostSetsViaTiles(s.src, tiling.tiles, pos, s.home, radius)
				for i := range pos {
					want := sortedCopy(s.src.GhostRanks(nil, pos[i], radius, s.home[i]))
					if g := sortedCopy(got[i]); !slices.Equal(g, want) {
						t.Fatalf("trial %d %s, %s: particle %d: scalar %v tile %v", trial, s.name, tiling.name, i, want, g)
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

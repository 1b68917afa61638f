package mesh

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"picpredict/internal/geom"
)

// tileOf builds a RanksTile query over all of pos (one tile) and returns
// the per-particle rank sets.
func tileRankSets(q *SphereOwners, pos []geom.Vec3, home []int, radius float64) [][]int {
	ids := make([]int32, len(pos))
	for i := range ids {
		ids[i] = int32(i)
	}
	flat, offs := q.RanksTile(nil, nil, ids, pos, home, radius)
	out := make([][]int, len(pos))
	prev := 0
	for j := range ids {
		end := int(offs[j])
		out[j] = append([]int{}, flat[prev:end]...)
		prev = end
	}
	return out
}

// TestRanksTileMatchesScalar is the batched ghost query's contract: for
// every particle the tile path returns exactly the rank set of the scalar
// Ranks call (order within a set is unspecified).
func TestRanksTileMatchesScalar(t *testing.T) {
	m, err := New(geom.Box(geom.V(0, 0, 0), geom.V(1, 1, 1)), 12, 12, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	d, err := Decompose(m, 9)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	for _, radius := range []float64{0, 0.01, 0.09, 0.4} {
		for trial := 0; trial < 8; trial++ {
			// A spatially tight cluster (a realistic tile) plus a few
			// scattered outliers to stretch the tile window.
			n := 1 + rng.Intn(40)
			cx, cy := rng.Float64(), rng.Float64()
			pos := make([]geom.Vec3, n)
			home := make([]int, n)
			for i := range pos {
				if i%7 == 6 {
					pos[i] = geom.V(rng.Float64(), rng.Float64(), 0)
				} else {
					pos[i] = geom.V(cx+0.05*rng.Float64(), cy+0.05*rng.Float64(), 0)
				}
				home[i] = d.RankOf(m.Home(pos[i]))
			}
			qScalar := NewSphereOwners(m, d)
			qTile := NewSphereOwners(m, d)
			got := tileRankSets(qTile, pos, home, radius)
			for i := range pos {
				want := qScalar.Ranks(nil, pos[i], radius, home[i])
				sort.Ints(want)
				g := append([]int{}, got[i]...)
				sort.Ints(g)
				if len(want) == 0 && len(g) == 0 {
					continue
				}
				if len(want) != len(g) {
					t.Fatalf("radius %g particle %d: scalar %v tile %v", radius, i, want, g)
				}
				for k := range want {
					if want[k] != g[k] {
						t.Fatalf("radius %g particle %d: scalar %v tile %v", radius, i, want, g)
					}
				}
			}
		}
	}
}

// TestRanksTileWindowFallback forces the huge-window fallback (radius much
// larger than the tile) and checks it still matches scalar answers.
func TestRanksTileWindowFallback(t *testing.T) {
	m, err := New(geom.Box(geom.V(0, 0, 0), geom.V(1, 1, 1)), 64, 64, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	d, err := Decompose(m, 16)
	if err != nil {
		t.Fatal(err)
	}
	pos := []geom.Vec3{geom.V(0.1, 0.1, 0), geom.V(0.9, 0.9, 0), geom.V(0.5, 0.5, 0)}
	home := make([]int, len(pos))
	for i := range pos {
		home[i] = d.RankOf(m.ElementAt(pos[i]))
	}
	q := NewSphereOwners(m, d)
	got := tileRankSets(NewSphereOwners(m, d), pos, home, 0.7)
	for i := range pos {
		want := q.Ranks(nil, pos[i], 0.7, home[i])
		sort.Ints(want)
		g := append([]int{}, got[i]...)
		sort.Ints(g)
		if len(want) != len(g) {
			t.Fatalf("particle %d: scalar %v tile %v", i, want, g)
		}
		for k := range want {
			if want[k] != g[k] {
				t.Fatalf("particle %d: scalar %v tile %v", i, want, g)
			}
		}
	}
}

// TestRanksTileNonFiniteMember: a member with a NaN or infinite coordinate,
// placed first, in the middle or last of a tile, neither panics nor
// stretches the tile window; it gets no ranks, and every finite member
// keeps its scalar answer. Both the dense-window path (radius 0.05) and
// the huge-window fallback (radius 0.7) are covered.
func TestRanksTileNonFiniteMember(t *testing.T) {
	m, err := New(geom.Box(geom.V(0, 0, 0), geom.V(1, 1, 1)), 64, 64, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	d, err := Decompose(m, 16)
	if err != nil {
		t.Fatal(err)
	}
	finite := []geom.Vec3{geom.V(0.49, 0.49, 0), geom.V(0.52, 0.47, 0), geom.V(0.51, 0.53, 0)}
	for _, bad := range []geom.Vec3{
		geom.V(math.NaN(), 0.5, 0), geom.V(0.5, math.Inf(1), 0), geom.V(math.Inf(-1), math.NaN(), 0),
	} {
		for at := 0; at <= len(finite); at++ {
			pos := append(append(append([]geom.Vec3{}, finite[:at]...), bad), finite[at:]...)
			home := make([]int, len(pos))
			for i := range pos {
				home[i] = d.RankOf(m.Home(pos[i]))
			}
			q := NewSphereOwners(m, d)
			for _, radius := range []float64{0.05, 0.7} {
				got := tileRankSets(NewSphereOwners(m, d), pos, home, radius)
				for i := range pos {
					var want []int
					if i != at {
						want = q.Ranks(nil, pos[i], radius, home[i])
					}
					if !equalSets(got[i], want) {
						t.Fatalf("%v at %d, radius %g, particle %d: tile %v, want %v", bad, at, radius, i, got[i], want)
					}
				}
			}
		}
	}
}

// TestSphereOwnersRanksNoAllocs pins the dedup rewrite: a warm query
// allocates nothing per call.
func TestSphereOwnersRanksNoAllocs(t *testing.T) {
	m, err := New(geom.Box(geom.V(0, 0, 0), geom.V(1, 1, 1)), 16, 16, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	d, err := Decompose(m, 8)
	if err != nil {
		t.Fatal(err)
	}
	q := NewSphereOwners(m, d)
	dst := make([]int, 0, 16)
	p := geom.V(0.5, 0.5, 0)
	q.Ranks(dst, p, 0.2, -1) // warm elemBuf
	allocs := testing.AllocsPerRun(100, func() {
		dst = q.Ranks(dst[:0], p, 0.2, -1)
	})
	if allocs != 0 {
		t.Fatalf("Ranks allocates %v times per op, want 0", allocs)
	}
}

package mesh

import (
	"fmt"
	"math/rand"
	"testing"

	"picpredict/internal/geom"
)

// randomMesh builds a mesh over a random box: a flat-z sheet, a 1×N strip
// or a 3-D block, with a random offset so centres can be negative.
func randomMesh(t testing.TB, rng *rand.Rand, shape int) *Mesh {
	t.Helper()
	ex, ey, ez := 1+rng.Intn(12), 1+rng.Intn(12), 1+rng.Intn(5)
	lo := geom.V(rng.Float64()*4-2, rng.Float64()*4-2, rng.Float64()*4-2)
	ext := geom.V(0.1+rng.Float64()*3, 0.1+rng.Float64()*3, 0.1+rng.Float64()*3)
	switch shape {
	case 0: // flat z: one element layer over a zero-height domain
		ez, ext.Z = 1, 0
	case 1: // 1×N strip
		ex, ey, ez = 1, 1+rng.Intn(60), 1
	}
	m, err := New(geom.AABB{Lo: lo, Hi: lo.Add(ext)}, ex, ey, ez, 2)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// randomWeights returns element weights of the given kind: nil, all zero,
// integers with zeros, fractional, or one dominant element.
func randomWeights(rng *rand.Rand, n, kind int) []float64 {
	if kind == 0 {
		return nil
	}
	w := make([]float64, n)
	for e := range w {
		switch kind {
		case 2:
			w[e] = float64(rng.Intn(4))
		case 3:
			w[e] = rng.Float64() / 3
		case 4:
			w[e] = 1
		}
	}
	if kind == 4 {
		w[rng.Intn(n)] = float64(10 * n)
	}
	return w
}

// decomposeOwners runs the bisection under test: Decompose for nil
// weights, DecomposeWeighted otherwise.
func decomposeOwners(m *Mesh, ranks int, weights []float64) (*Decomposition, error) {
	if weights == nil {
		return Decompose(m, ranks)
	}
	return DecomposeWeighted(m, ranks, weights)
}

// TestBisectionMatchesOracle checks the presorted bisection against the
// sort-per-subset oracle on random meshes, rank counts up to twice the
// element count (so some subsets are empty) and every weight kind.
func TestBisectionMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for trial := 0; trial < 300; trial++ {
		m := randomMesh(t, rng, trial%3)
		n := m.NumElements()
		ranks := 1 + rng.Intn(2*n)
		kind := rng.Intn(5)
		weights := randomWeights(rng, n, kind)
		d, err := decomposeOwners(m, ranks, weights)
		if err != nil {
			t.Fatal(err)
		}
		want := oracleOwners(m, ranks, weights)
		for e := range want {
			if d.Owner[e] != want[e] {
				t.Fatalf("trial %d (%d×%d×%d, R=%d, weights kind %d): Owner[%d] = %d, oracle %d",
					trial, m.Elements.Nx, m.Elements.Ny, m.Elements.Nz, ranks, kind, e, d.Owner[e], want[e])
			}
		}
	}
}

// FuzzDecomposeWeighted compares both decompositions with the oracle on
// fuzzed mesh dimensions, rank counts and weights (one byte per element,
// cycled; no bytes means all-zero weights).
func FuzzDecomposeWeighted(f *testing.F) {
	f.Fuzz(func(t *testing.T, ex, ey, ez uint8, ranks uint16, wb []byte) {
		if ex == 0 || ey == 0 || ez == 0 || int(ex)*int(ey)*int(ez) > 4096 || ranks == 0 {
			return
		}
		m, err := New(geom.Box(geom.V(0, 0, 0), geom.V(float64(ex), 0.5*float64(ey), float64(ez))), int(ex), int(ey), int(ez), 1)
		if err != nil {
			t.Fatal(err)
		}
		n := m.NumElements()
		weights := make([]float64, n)
		for e := range weights {
			if len(wb) > 0 {
				weights[e] = float64(wb[e%len(wb)]) / 7
			}
		}
		for _, w := range [][]float64{nil, weights} {
			d, err := decomposeOwners(m, int(ranks), w)
			if err != nil {
				t.Fatal(err)
			}
			want := oracleOwners(m, int(ranks), w)
			for e := range want {
				if d.Owner[e] != want[e] {
					t.Fatalf("%d×%d×%d R=%d weighted=%v: Owner[%d] = %d, oracle %d",
						ex, ey, ez, ranks, w != nil, e, d.Owner[e], want[e])
				}
			}
		}
	})
}

// TestDecomposeAllocs pins the allocation count of a paper-rank
// decomposition: scratch is allocated once per call and the per-rank
// element lists share one slab.
func TestDecomposeAllocs(t *testing.T) {
	m := mustMesh(t, 128, 128, 1)
	weights := make([]float64, m.NumElements())
	for e := range weights {
		weights[e] = float64(e % 5)
	}
	for _, w := range [][]float64{nil, weights} {
		allocs := testing.AllocsPerRun(3, func() {
			if _, err := decomposeOwners(m, 8352, w); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 16 {
			t.Errorf("weighted=%v: %v allocations per decomposition, want at most 16", w != nil, allocs)
		}
	}
}

// TestElementsOfCapped checks that every rank's element list is capped at
// its length, so an append by a caller reallocates instead of overwriting
// the next rank's list in the shared slab.
func TestElementsOfCapped(t *testing.T) {
	m := mustMesh(t, 4, 4, 1)
	for _, ranks := range []int{4, 5, 40} {
		d, err := Decompose(m, ranks)
		if err != nil {
			t.Fatal(err)
		}
		for r, list := range d.ElementsOf {
			if cap(list) != len(list) {
				t.Fatalf("R=%d: rank %d's list has length %d but capacity %d", ranks, r, len(list), cap(list))
			}
		}
	}
}

func BenchmarkDecompose(b *testing.B) {
	for _, side := range []int{128, 465} {
		m, err := New(geom.Box(geom.V(0, 0, 0), geom.V(1, 1, 0.01)), side, side, 1, 4)
		if err != nil {
			b.Fatal(err)
		}
		weights := make([]float64, m.NumElements())
		rng := rand.New(rand.NewSource(3))
		for e := range weights {
			weights[e] = float64(64 + rng.Intn(200))
		}
		for _, mode := range []struct {
			name    string
			weights []float64
		}{{"static", nil}, {"weighted", weights}} {
			b.Run(fmt.Sprintf("%dx%d/R=8352/%s", side, side, mode.name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := decomposeOwners(m, 8352, mode.weights); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

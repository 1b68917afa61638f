package perfmodel

import (
	"math/rand"
	"testing"
)

func benchData(n int) ([][]float64, []float64) {
	rng := rand.New(rand.NewSource(2))
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		np := rng.Float64() * 1e4
		g := 2 + rng.Float64()*8
		x[i] = []float64{np, g}
		y[i] = 2e-6 + 2e-9*np*g*g*g
	}
	return x, y
}

// Ablation: symbolic regression vs linear regression fitting cost.
func BenchmarkFitSymbolic(b *testing.B) {
	x, y := benchData(200)
	opts := SymbolicOptions{Seed: 3, Population: 150, Generations: 30, Restarts: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FitSymbolic(x, y, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// Ablation: scoring one GP population as compiled column programs vs the
// tree walk, over a projection-shaped training set — the kernel's 1,000
// training samples (Np × Ngp × N × Filter from the default sweep, Nel 0)
// and its cost law under 2% noise.
func BenchmarkCalibrate(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	var x [][]float64
	var y []float64
	for _, np := range []float64{0, 10, 50, 200, 1000, 5000, 20000, 60000} {
		for _, ngp := range []float64{0, 10, 100, 1000, 5000} {
			for _, n := range []float64{3, 4, 5, 7, 9} {
				for _, f := range []float64{0.5, 1, 2, 3, 5} {
					x = append(x, []float64{np, ngp, 0, n, f})
					law := 2e-6 + 1.5e-9*(np+ngp)*n*(1+f*f*f)
					y = append(y, law*(1+0.02*rng.NormFloat64()))
				}
			}
		}
	}
	pop := make([]*node, 200)
	for i := range pop {
		pop[i] = randTree(rng, 5, 1+rng.Intn(5))
	}
	b.Run("compiled", func(b *testing.B) {
		fd := newFitData(x, y)
		var sc scratch
		for i := 0; i < b.N; i++ {
			for _, t := range pop {
				_, _, benchFitness = sc.score(t, fd)
			}
		}
	})
	b.Run("tree", func(b *testing.B) {
		yScale := oracleYScale(y)
		for i := 0; i < b.N; i++ {
			for _, t := range pop {
				_, _, benchFitness = oracleCalibrate(t, x, y, yScale)
			}
		}
	})
}

var benchFitness float64

func BenchmarkFitLinearPoly(b *testing.B) {
	x, y := benchData(200)
	basis, names := PolyBasis([]string{"Np", "N"})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FitLinearRelative(x, y, basis, names); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSymbolicPredict(b *testing.B) {
	x, y := benchData(200)
	m, err := FitSymbolic(x, y, SymbolicOptions{Seed: 3, Population: 150, Generations: 30, Restarts: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = m.Predict(x[i%len(x)])
	}
}

// Benchmarks: one per paper table/figure, regenerating each experiment's
// pipeline at a reduced scale and reporting its headline number as a
// benchmark metric, plus ablation benches for the design choices DESIGN.md
// calls out and micro-benchmarks of the heavy machinery.
//
// Run with:
//
//	go test -bench=. -benchmem
package picpredict_test

import (
	"io"
	"sync"
	"testing"

	"picpredict"
	"picpredict/internal/figures"
)

// benchConfig is the scaled-down scenario shared by the figure benches.
func benchConfig() figures.Config {
	return figures.Config{
		Spec: picpredict.HeleShaw().
			WithParticles(2000).
			WithElements(48, 48, 1).
			WithSteps(300).
			WithSampleEvery(100).
			WithFilterRadius(0.009).
			WithBurst(0.004, 0),
		Ranks:      []int{64, 128, 256},
		FastModels: true,
	}
}

var (
	benchRunnerOnce sync.Once
	benchRunnerVal  *figures.Runner
)

// benchRunner shares one scenario run and model fit across benches so each
// bench times its own figure's pipeline, not the common setup.
func benchRunner(b *testing.B) *figures.Runner {
	b.Helper()
	benchRunnerOnce.Do(func() {
		benchRunnerVal = figures.NewRunner(benchConfig(), io.Discard)
	})
	if _, err := benchRunnerVal.Trace(); err != nil {
		b.Fatal(err)
	}
	return benchRunnerVal
}

func BenchmarkFig1aHeatmap(b *testing.B) {
	r := benchRunner(b)
	var peak int64
	for i := 0; i < b.N; i++ {
		r.ClearWorkloadCache()
		res, err := r.Fig1a(256)
		if err != nil {
			b.Fatal(err)
		}
		peak = res.Peak
	}
	b.ReportMetric(float64(peak), "peak-particles")
}

func BenchmarkFig1bNonZeroProcs(b *testing.B) {
	r := benchRunner(b)
	var idle float64
	for i := 0; i < b.N; i++ {
		r.ClearWorkloadCache()
		rows, err := r.Fig1b([]int{64, 128, 256})
		if err != nil {
			b.Fatal(err)
		}
		idle = rows[len(rows)-1].IdlePct
	}
	b.ReportMetric(idle, "idle-%")
}

func BenchmarkFig5PeakWorkload(b *testing.B) {
	r := benchRunner(b)
	for i := 0; i < b.N; i++ {
		r.ClearWorkloadCache()
		if _, err := r.Fig5(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig6BinGrowth(b *testing.B) {
	r := benchRunner(b)
	var maxBins int
	for i := 0; i < b.N; i++ {
		r.ClearWorkloadCache()
		res, err := r.Fig6()
		if err != nil {
			b.Fatal(err)
		}
		maxBins = res.MaxBins
	}
	b.ReportMetric(float64(maxBins), "max-bins")
}

func BenchmarkFig7ModelMAPE(b *testing.B) {
	r := benchRunner(b)
	var mean float64
	for i := 0; i < b.N; i++ {
		r.ClearWorkloadCache()
		res, err := r.Fig7()
		if err != nil {
			b.Fatal(err)
		}
		mean = res.Mean
	}
	b.ReportMetric(mean, "mape-%")
}

func BenchmarkFig8MappingPeak(b *testing.B) {
	r := benchRunner(b)
	var ratio float64
	for i := 0; i < b.N; i++ {
		r.ClearWorkloadCache()
		rows, err := r.Fig8()
		if err != nil {
			b.Fatal(err)
		}
		ratio = rows[0].Ratio
	}
	b.ReportMetric(ratio, "elem/bin-peak")
}

func BenchmarkFig9Utilization(b *testing.B) {
	r := benchRunner(b)
	var ru float64
	for i := 0; i < b.N; i++ {
		r.ClearWorkloadCache()
		res, err := r.Fig9()
		if err != nil {
			b.Fatal(err)
		}
		ru = res.BinMeanPct
	}
	b.ReportMetric(ru, "bin-RU-%")
}

func BenchmarkFig10aFilterBins(b *testing.B) {
	r := benchRunner(b)
	for i := 0; i < b.N; i++ {
		r.ClearWorkloadCache()
		if _, err := r.Fig10a(nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig10bGhostKernel(b *testing.B) {
	r := benchRunner(b)
	for i := 0; i < b.N; i++ {
		r.ClearWorkloadCache()
		if _, err := r.Fig10b(nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEndToEndSim(b *testing.B) {
	r := benchRunner(b)
	var total float64
	for i := 0; i < b.N; i++ {
		r.ClearWorkloadCache()
		rows, err := r.Simulate()
		if err != nil {
			b.Fatal(err)
		}
		total = rows[0].Total
	}
	b.ReportMetric(total, "pred-seconds")
}

func BenchmarkWorkloadGenVsAppRun(b *testing.B) {
	// The §II speed claim: workload generation at a large rank count per
	// trace, to compare against the application run (BenchmarkAppRun).
	r := benchRunner(b)
	var speedup float64
	for i := 0; i < b.N; i++ {
		r.ClearWorkloadCache()
		res, err := r.Speed(4176)
		if err != nil {
			b.Fatal(err)
		}
		speedup = res.Speedup
	}
	b.ReportMetric(speedup, "speedup-x")
}

// BenchmarkAppRun measures the PIC application itself — the cost the
// Dynamic Workload Generator avoids.
func BenchmarkAppRun(b *testing.B) {
	spec := picpredict.HeleShaw().
		WithParticles(1000).
		WithElements(32, 32, 1).
		WithSteps(100).
		WithSampleEvery(50)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := spec.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTrainModels measures one Model Generator run at seed 1 on the
// synthetic testbed — the set-up every fused run and every cold serving
// model key pays — with the fast and the full symbolic search.
func BenchmarkTrainModels(b *testing.B) {
	for _, tc := range []struct {
		name string
		fast bool
	}{{"fast", true}, {"full", false}} {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := picpredict.TrainModels(picpredict.TrainOptions{Seed: 1, Fast: tc.fast}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

package pipeline_test

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"picpredict/internal/core"
	"picpredict/internal/geom"
	"picpredict/internal/mapping"
	"picpredict/internal/pipeline"
)

// BenchmarkStreamConcurrent measures end-to-end frame throughput through the
// concurrent streaming pipeline with the workload generator as the sink —
// the frames/sec number of BENCH_pipeline.json, with streaming overhead,
// mapping, ghost queries and sparse-matrix bookkeeping all in the loop.
// Run with: make bench-pipeline.
const (
	benchStreamNp     = 120000
	benchStreamRanks  = 2048
	benchStreamFilter = 0.004
	benchStreamFrames = 6
)

// benchStreamSource drifts a disc cloud across frames so the bin tree sees
// real inter-frame motion (splits and merges) rather than a frozen snapshot.
func benchStreamSource() *pipeline.SliceSource {
	rng := rand.New(rand.NewSource(29))
	src := &pipeline.SliceSource{Np: benchStreamNp}
	base := make([]geom.Vec3, benchStreamNp)
	for i := range base {
		r := 0.4 * math.Sqrt(rng.Float64())
		th := 2 * math.Pi * rng.Float64()
		base[i] = geom.V(0.45+r*math.Cos(th), 0.5+r*math.Sin(th), 0)
	}
	for k := 0; k < benchStreamFrames; k++ {
		src.Iterations = append(src.Iterations, k*100)
		drift := 0.01 * float64(k)
		for _, p := range base {
			src.Positions = append(src.Positions, geom.V(p.X+drift, p.Y, p.Z))
		}
	}
	return src
}

func BenchmarkStreamConcurrent(b *testing.B) {
	src := benchStreamSource()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gen, err := core.NewGenerator(core.Config{
			Mapper:       mapping.NewBinMapper(benchStreamRanks, benchStreamFilter),
			FilterRadius: benchStreamFilter,
		})
		if err != nil {
			b.Fatal(err)
		}
		gb := &pipeline.GeneratorBuilder{Gen: gen}
		if err := pipeline.StreamConcurrent(context.Background(), src, 2, gb); err != nil {
			b.Fatal(err)
		}
		if _, err := gb.Finish(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	perOp := b.Elapsed().Seconds() / float64(b.N)
	b.ReportMetric(benchStreamFrames/perOp, "frames/s")
}

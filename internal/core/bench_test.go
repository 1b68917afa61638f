package core

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"picpredict/internal/geom"
	"picpredict/internal/mapping"
	"picpredict/internal/mesh"
	"picpredict/internal/sparse"
)

// BenchmarkGeneratorFrame measures per-frame workload generation without
// ghost queries — the core §II speed-claim machinery.
func BenchmarkGeneratorFrame(b *testing.B) {
	benchGeneratorFrame(b, 0)
}

// BenchmarkGeneratorFrameWithGhosts includes ghost-particle workload
// generation.
func BenchmarkGeneratorFrameWithGhosts(b *testing.B) {
	benchGeneratorFrame(b, 0.01)
}

func benchGeneratorFrame(b *testing.B, filter float64) {
	benchGeneratorWorkers(b, filter, 0)
}

// BenchmarkGeneratorSerial / BenchmarkGeneratorParallel compare the serial
// fill against the worker-pool fill on a ghost-heavy ≥8-rank workload (the
// hot loop is the per-particle ghost query, so that is where fan-out pays).
// On a single-CPU machine GOMAXPROCS is 1 and the parallel generator
// deliberately degenerates to the serial path, so the two numbers coincide.
// Run with: go test -bench 'GeneratorSerial|GeneratorParallel' ./internal/core/
func BenchmarkGeneratorSerial(b *testing.B)   { benchGeneratorWorkers(b, 0.02, 0) }
func BenchmarkGeneratorParallel(b *testing.B) { benchGeneratorWorkers(b, 0.02, runtime.GOMAXPROCS(0)) }

// Paper-scale fill benchmarks: N_p = 599,257 particles mapped onto R = 8352
// ranks (the largest configuration of §V), comparing the flat per-particle
// oracle fill (flatFill) against the generator's cell-tiled ghost fill with
// the mapper assignment hoisted out of the timed region — these measure
// exactly the matrix-fill hot path the tiling batches.
// Speedup = PaperFill*Scalar / PaperFill*Tiled.
// Run with: make bench-pipeline (writes BENCH_pipeline.json).
const (
	paperNp     = 599257
	paperRanks  = 8352
	paperFilter = 0.004
)

// paperCloud is a disc cloud filling most of the unit square — dense enough
// that tiles hold many particles, wide enough that many ranks participate.
func paperCloud(np int) []geom.Vec3 {
	rng := rand.New(rand.NewSource(71))
	pos := make([]geom.Vec3, np)
	for i := range pos {
		r := 0.45 * math.Sqrt(rng.Float64())
		th := 2 * math.Pi * rng.Float64()
		pos[i] = geom.V(0.5+r*math.Cos(th), 0.5+r*math.Sin(th), 0)
	}
	return pos
}

func BenchmarkPaperFillBinScalar(b *testing.B) {
	benchPaperFill(b, mapping.NewBinMapper(paperRanks, paperFilter), true)
}

func BenchmarkPaperFillBinTiled(b *testing.B) {
	benchPaperFill(b, mapping.NewBinMapper(paperRanks, paperFilter), false)
}

func paperElementMapper(b *testing.B) *mapping.ElementMapper {
	b.Helper()
	m, err := mesh.New(geom.Box(geom.V(0, 0, 0), geom.V(1, 1, 1)), 465, 465, 1, 2)
	if err != nil {
		b.Fatal(err)
	}
	d, err := mesh.Decompose(m, paperRanks)
	if err != nil {
		b.Fatal(err)
	}
	return mapping.NewElementMapper(m, d)
}

func BenchmarkPaperFillElementScalar(b *testing.B) {
	benchPaperFill(b, paperElementMapper(b), true)
}

func BenchmarkPaperFillElementTiled(b *testing.B) {
	benchPaperFill(b, paperElementMapper(b), false)
}

// benchPaperFill times one steady-state serial fill of the paper-scale
// cloud: the flat oracle when flat is set, the generator's own fill
// otherwise.
func benchPaperFill(b *testing.B, mapper mapping.Mapper, flat bool) {
	pos := paperCloud(paperNp)
	g, err := NewGenerator(Config{Mapper: mapper, FilterRadius: paperFilter})
	if err != nil {
		b.Fatal(err)
	}
	// One untimed frame allocates the assignment buffers (and trains the bin
	// tree for bin mapping); a second assignment fills g.cur so the timed
	// fills see a steady-state frame with the comm comparison active.
	if err := g.Frame(0, pos); err != nil {
		b.Fatal(err)
	}
	if err := g.cfg.Mapper.Assign(g.cur, pos); err != nil {
		b.Fatal(err)
	}
	ranks := g.wl.Ranks
	comp := make([]int64, ranks)
	comm := sparse.NewAcc(ranks)
	gcomp := make([]int64, ranks)
	gcomm := sparse.NewAcc(ranks)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clear(comp)
		comm.Reset()
		clear(gcomp)
		gcomm.Reset()
		if flat {
			err = flatFill(g.ghosts, paperFilter, g.cur, g.prev, pos, comp, comm, gcomp, gcomm)
		} else {
			err = g.fill(pos, 1, comp, comm, gcomp, gcomm)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(paperNp, "particles/frame")
}

func benchGeneratorWorkers(b *testing.B, filter float64, workers int) {
	const np = 50000
	rng := rand.New(rand.NewSource(5))
	pos := make([]geom.Vec3, np)
	for i := range pos {
		pos[i] = geom.V(rng.Float64(), rng.Float64(), 0)
	}
	gen, err := NewGenerator(Config{
		Mapper:       mapping.NewBinMapper(1024, 0.01),
		FilterRadius: filter,
		Workers:      workers,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := gen.Frame(i*100, pos); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(np, "particles/frame")
}

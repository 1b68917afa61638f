package mapping

import (
	"math"
	"math/rand"
	"testing"

	"picpredict/internal/geom"
	"picpredict/internal/mesh"
)

func benchCloud(n int) []geom.Vec3 {
	rng := rand.New(rand.NewSource(11))
	pos := make([]geom.Vec3, n)
	for i := range pos {
		pos[i] = geom.V(rng.Float64(), rng.Float64(), rng.Float64()*0.01)
	}
	return pos
}

// Ablation: median vs midpoint planar cuts at the same scale.
func BenchmarkBinAssignMedian(b *testing.B) {
	benchBinAssign(b, SplitMedian)
}

func BenchmarkBinAssignMidpoint(b *testing.B) {
	benchBinAssign(b, SplitMidpoint)
}

func benchBinAssign(b *testing.B, policy SplitPolicy) {
	pos := benchCloud(50000)
	bm := NewBinMapper(1024, 0.01)
	bm.Policy = policy
	dst := make([]int, len(pos))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := bm.Assign(dst, pos); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(pos)), "particles/frame")
}

// BenchmarkBinAssignPaper assigns one paper-scale frame: the
// 599,257-particle disc of internal/sweep's benchmark trace (frame 0) onto
// R = 8352 ranks at the paper's threshold bin size 0.004. Unlike the 50k
// cloud above, this frame does not fit in cache.
func BenchmarkBinAssignPaper(b *testing.B) {
	const np = 599257
	rng := rand.New(rand.NewSource(71))
	pos := make([]geom.Vec3, np)
	for i := range pos {
		r := 0.45 * math.Sqrt(rng.Float64())
		th := 2 * math.Pi * rng.Float64()
		pos[i] = geom.V(0.5+r*math.Cos(th), 0.5+r*math.Sin(th), 0)
	}
	bm := NewBinMapper(8352, 0.004)
	dst := make([]int, np)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := bm.Assign(dst, pos); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(bm.NumBins()), "bins")
}

func BenchmarkElementAssign(b *testing.B) {
	m, err := mesh.New(geom.Box(geom.V(0, 0, 0), geom.V(1, 1, 0.01)), 128, 128, 1, 4)
	if err != nil {
		b.Fatal(err)
	}
	d, err := mesh.Decompose(m, 1024)
	if err != nil {
		b.Fatal(err)
	}
	em := NewElementMapper(m, d)
	pos := benchCloud(50000)
	dst := make([]int, len(pos))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := em.Assign(dst, pos); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHilbertAssign(b *testing.B) {
	m, err := mesh.New(geom.Box(geom.V(0, 0, 0), geom.V(1, 1, 0.01)), 128, 128, 1, 4)
	if err != nil {
		b.Fatal(err)
	}
	hm := NewHilbertMapper(m, 1024)
	pos := benchCloud(50000)
	dst := make([]int, len(pos))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := hm.Assign(dst, pos); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGhostRanksBin(b *testing.B) {
	pos := benchCloud(20000)
	bm := NewBinMapper(512, 0.01)
	dst := make([]int, len(pos))
	if err := bm.Assign(dst, pos); err != nil {
		b.Fatal(err)
	}
	var buf []int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = bm.GhostRanks(buf[:0], pos[i%len(pos)], 0.02, dst[i%len(pos)])
	}
}

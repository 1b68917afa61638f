package pic_test

import (
	"testing"

	"picpredict/internal/pic"
	"picpredict/internal/scenario"
)

// heleShawSolver builds the experiment-scale Hele-Shaw solver (20,000
// bed-disc particles on a 128×128×1 mesh, filter 0.00428), serial.
func heleShawSolver(b *testing.B) *pic.Solver {
	b.Helper()
	s, err := scenario.HeleShaw().BuildSolver()
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// BenchmarkProject times the projection phase alone at Hele-Shaw density.
func BenchmarkProject(b *testing.B) {
	s := heleShawSolver(b)
	s.Project(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Project(1)
	}
	b.ReportMetric(float64(s.Particles.Len()), "particles")
}

// BenchmarkSolverStepHeleShaw times one serial Hele-Shaw solver step, the
// loop the fused pipeline's simulation runs.
func BenchmarkSolverStepHeleShaw(b *testing.B) {
	s := heleShawSolver(b)
	s.Step()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
	b.ReportMetric(float64(s.Particles.Len()), "particles")
}

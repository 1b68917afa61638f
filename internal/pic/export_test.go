package pic

// Project runs the projection phase alone with the given worker count, for
// the benchmarks in package pic_test.
func (s *Solver) Project(workers int) { s.project(workers) }

// Package picpredict is a trace-driven performance prediction framework for
// irregular Particle-in-Cell (PIC) workloads, reproducing Chenna et al.,
// "Scalable Performance Prediction of Irregular Workloads in Multi-Phase
// Particle-in-Cell Applications" (IPDPS 2021).
//
// The framework predicts how a PIC application behaves on any number of
// processors from a single particle trace:
//
//	trace ──► Dynamic Workload Generator ──► per-rank workload matrices
//	                                             │
//	kernel benchmarks ──► Model Generator ───────┼──► Simulation Platform
//	                                             ▼
//	                                  performance prediction
//
// Typical use:
//
//	spec := picpredict.HeleShaw()                  // §IV-A case study
//	tr, _ := spec.Run()                            // run the PIC app, sample a trace
//	wl, _ := tr.GenerateWorkload(picpredict.WorkloadOptions{
//		Ranks:        1044,
//		Mapping:      picpredict.MappingBin,
//		FilterRadius: spec.FilterRadius(),
//	})
//	fmt.Println(wl.Peak(), wl.Utilization())
//
//	models, _ := picpredict.TrainModels(picpredict.TrainOptions{})
//	platform, _ := picpredict.NewPlatform(models, picpredict.PlatformOptions{
//		TotalElements: spec.NumElements(), N: 5, Filter: 2,
//	})
//	pred, _ := platform.SimulateBSP(wl)
//	fmt.Println(pred.Total)
//
// Everything is deterministic under fixed seeds; no external dependencies.
package picpredict

import (
	"fmt"
	"io"

	"picpredict/internal/geom"
	"picpredict/internal/scenario"
)

// Scenario is a runnable PIC case study: domain, mesh, particles, gas flow,
// and solver parameters. Construct one with HeleShaw, HeleShawFull,
// UniformScenario or GaussianScenario, then customise with the With*
// methods (value semantics: each returns a modified copy).
type Scenario struct {
	spec scenario.Spec
}

// HeleShaw returns the experiment-scale Hele-Shaw case study (§IV-A): a
// dense particle bed dispersed by a diaphragm-burst shock in a thin cell.
func HeleShaw() Scenario { return Scenario{spec: scenario.HeleShaw()} }

// HeleShawFull returns the paper-scale Hele-Shaw study: 599,257 particles,
// 216,225 spectral elements, 20,000 iterations. Running it takes minutes.
func HeleShawFull() Scenario { return Scenario{spec: scenario.HeleShawPaper()} }

// UniformScenario returns a uniformly-seeded baseline with no initial
// clustering.
func UniformScenario() Scenario { return Scenario{spec: scenario.Uniform()} }

// ShockTubeScenario returns a Sod-style shock tube whose gas phase is the
// built-in compressible Euler solver: a shock sweeps a particle curtain
// downstream, producing migration-dominated communication matrices.
func ShockTubeScenario() Scenario { return Scenario{spec: scenario.ShockTube()} }

// GaussianScenario returns a statically-clustered scenario with no flow.
func GaussianScenario() Scenario { return Scenario{spec: scenario.GaussianCluster()} }

// FromSpec wraps a raw scenario spec in the facade type. Only callable
// from inside the module (scenario is an internal package); the cmd front
// ends use it to hand an already-customised spec to RunFused.
func FromSpec(spec scenario.Spec) Scenario { return Scenario{spec: spec} }

// WithParticles sets the particle count N_p.
func (s Scenario) WithParticles(n int) Scenario { s.spec.NumParticles = n; return s }

// WithSteps sets the iteration count of a full run.
func (s Scenario) WithSteps(n int) Scenario { s.spec.Steps = n; return s }

// WithSampleEvery sets the trace sampling interval in iterations.
func (s Scenario) WithSampleEvery(n int) Scenario { s.spec.SampleEvery = n; return s }

// WithSeed sets the random seed; equal seeds give identical runs.
func (s Scenario) WithSeed(seed int64) Scenario { s.spec.Seed = seed; return s }

// WithElements sets the spectral-element grid dimensions.
func (s Scenario) WithElements(ex, ey, ez int) Scenario {
	s.spec.Elements = [3]int{ex, ey, ez}
	return s
}

// WithFilterRadius sets the projection filter size (absolute length). It is
// both the ghost-particle influence radius and the threshold bin size of
// bin-based mapping (§IV-D).
func (s Scenario) WithFilterRadius(r float64) Scenario { s.spec.FilterRadius = r; return s }

// WithBurst overrides the diaphragm-burst strength and the shock arrival
// delay (the time before the flow reaches the particle bed). Zero amp
// disables the flow.
func (s Scenario) WithBurst(amp, delay float64) Scenario {
	s.spec.BurstAmp = amp
	s.spec.BurstDelay = delay
	return s
}

// WithWorkers sets the PIC solver's worker-goroutine count (0 or 1 runs
// serially). Traces are bit-identical for any value.
func (s Scenario) WithWorkers(n int) Scenario { s.spec.Workers = n; return s }

// WithCollisions enables soft-sphere particle collisions with the given
// stiffness.
func (s Scenario) WithCollisions(stiffness float64) Scenario {
	s.spec.Collisions = stiffness > 0
	s.spec.Stiffness = stiffness
	return s
}

// Name returns the scenario label.
func (s Scenario) Name() string { return s.spec.Name }

// NumParticles returns N_p.
func (s Scenario) NumParticles() int { return s.spec.NumParticles }

// NumElements returns the total spectral element count.
func (s Scenario) NumElements() int {
	return s.spec.Elements[0] * s.spec.Elements[1] * s.spec.Elements[2]
}

// Elements returns the element grid dimensions (Ex, Ey, Ez).
func (s Scenario) Elements() [3]int { return s.spec.Elements }

// GridN returns the grid resolution within one element.
func (s Scenario) GridN() int { return s.spec.N }

// Steps returns the iteration count of a full run.
func (s Scenario) Steps() int { return s.spec.Steps }

// SampleEvery returns the trace sampling interval.
func (s Scenario) SampleEvery() int { return s.spec.SampleEvery }

// FilterRadius returns the projection filter size (absolute length).
func (s Scenario) FilterRadius() float64 { return s.spec.FilterRadius }

// FilterInElements returns the projection filter size expressed in element
// widths — the unit the kernel performance models use.
func (s Scenario) FilterInElements() float64 {
	w := s.spec.Domain.Extent().X / float64(s.spec.Elements[0])
	if w <= 0 {
		return 0
	}
	return s.spec.FilterRadius / w
}

// Validate reports the first invalid scenario field.
func (s Scenario) Validate() error { return s.spec.Validate() }

// Run executes the PIC application and returns the sampled trace in
// memory.
func (s Scenario) Run() (*Trace, error) {
	res, err := s.spec.Run()
	if err != nil {
		return nil, fmt.Errorf("picpredict: running scenario %s: %w", s.spec.Name, err)
	}
	return &Trace{
		domain:      res.Spec.Domain,
		np:          res.Np(),
		sampleEvery: s.spec.SampleEvery,
		iterations:  res.Iterations,
		positions:   res.Positions,
		mesh:        meshParams{elements: s.spec.Elements, n: s.spec.N},
	}, nil
}

// WriteTrace executes the PIC application, streaming the trace to w in the
// binary trace format (readable later with ReadTrace).
func (s Scenario) WriteTrace(w io.Writer) error {
	if _, err := s.spec.WriteTrace(w); err != nil {
		return fmt.Errorf("picpredict: writing trace for %s: %w", s.spec.Name, err)
	}
	return nil
}

// meshParams carries the element-grid shape a trace was produced on, needed
// to rebuild meshes for element-based mapping.
type meshParams struct {
	elements [3]int
	n        int
}

// domainOf converts a geom.AABB to the exported [2][3]float64 form.
func domainOf(b geom.AABB) [2][3]float64 {
	return [2][3]float64{{b.Lo.X, b.Lo.Y, b.Lo.Z}, {b.Hi.X, b.Hi.Y, b.Hi.Z}}
}

// MappingKinds lists every mapping algorithm the Dynamic Workload Generator
// implements, in the §III presentation order.
func MappingKinds() []MappingKind {
	return []MappingKind{MappingElement, MappingBin, MappingHilbert, MappingWeighted, MappingOhHelp}
}

// ParseMappingKind validates a mapping-algorithm name; empty means
// MappingBin (the paper's default). It is the one validation site behind the
// serving layer, the sweep engine, and the cmd front ends.
func ParseMappingKind(s string) (MappingKind, error) {
	switch MappingKind(s) {
	case "":
		return MappingBin, nil
	case MappingElement, MappingBin, MappingHilbert, MappingWeighted, MappingOhHelp:
		return MappingKind(s), nil
	default:
		return "", fmt.Errorf("picpredict: unknown mapping %q (element, bin, hilbert, weighted, ohhelp)", s)
	}
}

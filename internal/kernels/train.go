package kernels

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"picpredict/internal/perfmodel"
)

// DefaultSweep returns the benchmarking campaign used to train the CMT-nek
// kernel models: workload parameter combinations spanning the ranges the
// Hele-Shaw study visits (§IV-A "benchmarked for multiple parameter
// combinations").
func DefaultSweep() Sweep {
	return Sweep{
		Np:     []float64{0, 10, 50, 200, 1000, 5000, 20000, 60000},
		Ngp:    []float64{0, 10, 100, 1000, 5000},
		Nel:    []float64{16, 64, 256},
		N:      []float64{3, 4, 5, 7, 9},
		Filter: []float64{0.5, 1, 2, 3, 5},
	}
}

// TrainOptions tunes model training.
type TrainOptions struct {
	// Sweep is the benchmark campaign; zero value takes DefaultSweep.
	Sweep Sweep
	// Seed drives symbolic-regression randomness.
	Seed int64
	// Fast shrinks the symbolic search for quick tests.
	Fast bool
}

// Models maps kernel name → fitted performance model over the feature order
// of Workload.Features.
type Models map[string]perfmodel.Model

// Train runs the Model Generator (§II-B) for every kernel: it benchmarks
// each kernel over the sweep with the given measurer and fits a model —
// linear regression over a polynomial basis where that suffices
// (single-dominant-parameter kernels) and symbolic regression for the
// multi-parameter kernels, exactly the split the paper describes.
//
// Every measurement is taken before any fit starts, in All() order: the
// measurer sees the same sequence of calls whatever the fits do (the
// synthetic testbed's noise stream depends on it), and no fit competes for
// the CPU while a wall-clock measurement is being timed.
func Train(m Measurer, opts TrainOptions) (Models, error) {
	sweep := opts.Sweep
	if len(sweep.Np) == 0 && len(sweep.Ngp) == 0 && len(sweep.Nel) == 0 && len(sweep.N) == 0 && len(sweep.Filter) == 0 {
		sweep = DefaultSweep()
	}
	samples := make(map[string][]Sample, 5)
	for _, k := range All() {
		samples[k.Name] = Generate(k, m, kernelSweep(k.Name, sweep))
	}
	return TrainFromSamples(samples, opts)
}

// kernelSweep restricts the sweep to the parameters that matter per
// kernel, so the training grid stays compact and the fits stay
// identifiable.
func kernelSweep(name string, sweep Sweep) Sweep {
	switch name {
	case Pusher.Name, EqSolver.Name:
		return Sweep{Np: sweep.Np}
	case Interpolation.Name:
		return Sweep{Np: sweep.Np, N: sweep.N}
	case Projection.Name:
		return Sweep{Np: sweep.Np, Ngp: sweep.Ngp, N: sweep.N, Filter: sweep.Filter}
	case CreateGhosts.Name:
		return Sweep{Np: sweep.Np, Ngp: sweep.Ngp, Filter: sweep.Filter}
	}
	return sweep
}

// TrainFromSamples fits one model per kernel from benchmark samples — Train
// hands it the synthetic or wall-clock measurements, and the instrumented
// application path hands it AppSamples. Kernels without samples are absent
// from the result. The fits share nothing and each is deterministic, so
// they run concurrently; when fits fail, the first failure in sorted
// kernel-name order is returned, so the error does not depend on map order
// or scheduling.
func TrainFromSamples(samples map[string][]Sample, opts TrainOptions) (Models, error) {
	names := make([]string, 0, len(samples))
	for name := range samples {
		names = append(names, name)
	}
	sort.Strings(names)
	models := make([]perfmodel.Model, len(names))
	errs := make([]error, len(names))
	var wg sync.WaitGroup
	for i, name := range names {
		wg.Add(1)
		go func() {
			defer wg.Done()
			models[i], errs[i] = FitKernel(name, samples[name], opts)
		}()
	}
	wg.Wait()
	out := make(Models, len(names))
	for i, name := range names {
		if errs[i] != nil {
			return nil, fmt.Errorf("kernels: training %s: %w", name, errs[i])
		}
		out[name] = models[i]
	}
	return out, nil
}

// FitKernel fits the model for one kernel from benchmark samples, choosing
// linear regression for the single-parameter kernels and symbolic
// regression for the multi-parameter ones (§II-B's split).
func FitKernel(name string, samples []Sample, opts TrainOptions) (perfmodel.Model, error) {
	if len(samples) == 0 {
		return nil, fmt.Errorf("kernels: no samples for %s", name)
	}
	x := make([][]float64, len(samples))
	y := make([]float64, len(samples))
	for i, smp := range samples {
		x[i] = smp.W.Features()
		y[i] = smp.Time
	}

	names := FeatureNames()
	switch name {
	case Pusher.Name:
		// Single-parameter, linear in N_p: plain linear regression (§IV-A).
		basis := []perfmodel.BasisFunc{func(v []float64) float64 { return v[0] }}
		return perfmodel.FitLinearRelative(x, y, basis, []string{"Np"})
	case EqSolver.Name:
		// Single parameter with a mild non-linearity: linear regression
		// over an augmented basis.
		basis := []perfmodel.BasisFunc{
			func(v []float64) float64 { return v[0] },
			func(v []float64) float64 { return v[0] * math.Log1p(v[0]) },
		}
		return perfmodel.FitLinearRelative(x, y, basis, []string{"Np", "Np·log1p(Np)"})
	default:
		// Multi-parameter kernels: symbolic regression (§II-B).
		so := perfmodel.SymbolicOptions{
			Seed:         opts.Seed + int64(len(name)),
			FeatureNames: names,
		}
		if opts.Fast {
			so.Population, so.Generations, so.Restarts = 200, 60, 3
		}
		return perfmodel.FitSymbolic(x, y, so)
	}
}

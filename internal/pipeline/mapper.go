package pipeline

import (
	"errors"
	"fmt"

	"picpredict/internal/core"
	"picpredict/internal/geom"
	"picpredict/internal/mapping"
	"picpredict/internal/mesh"
	"picpredict/internal/obs"
	"picpredict/internal/rebalance"
)

// MapperSpec describes a particle mapping algorithm by name plus the
// parameters needed to build it — the workload-builder half of the paper's
// configuration file (§II-A), shared by every front end (facade, cmds,
// fused runs).
type MapperSpec struct {
	// Kind names the algorithm: element, bin, hilbert, weighted, ohhelp.
	Kind string
	// Ranks is the processor count R.
	Ranks int
	// FilterRadius is the projection filter size; for bin mapping it
	// doubles as the threshold bin size.
	FilterRadius float64
	// RelaxedBins removes the processor-count limit on bin splitting.
	RelaxedBins bool
	// MidpointSplit switches bin cuts from median to spatial midpoint.
	MidpointSplit bool
	// Rebalance is a rebalance.ParseSpec policy spec ("", "none",
	// "periodic:K", "threshold:F", "diffusion:F[/R]"). A non-none spec is
	// only valid with element mapping and swaps the static decomposition
	// for a mapping.DynamicMapper driven by the policy.
	Rebalance string

	// Domain, Elements and N describe the application mesh — required by
	// the element-anchored mappings (element, hilbert, weighted, ohhelp),
	// ignored by bin mapping.
	Domain   geom.AABB
	Elements [3]int
	N        int
}

// Build assembles the mapper. For bin mapping the concrete *BinMapper is
// also returned so callers can record per-frame bin counts (nil otherwise).
func (ms MapperSpec) Build() (mapping.Mapper, *mapping.BinMapper, error) {
	if ms.Ranks <= 0 {
		return nil, nil, fmt.Errorf("pipeline: Ranks must be positive, got %d", ms.Ranks)
	}
	if ms.Ranks > core.MaxRanks {
		return nil, nil, fmt.Errorf("pipeline: rank count %d exceeds the %d limit", ms.Ranks, core.MaxRanks)
	}
	spec, err := rebalance.ParseSpec(ms.Rebalance)
	if err != nil {
		return nil, nil, fmt.Errorf("pipeline: %w", err)
	}
	if !spec.None() && ms.Kind != "element" {
		return nil, nil, fmt.Errorf("pipeline: rebalance policy %q requires element mapping, got %q", spec, ms.Kind)
	}
	switch ms.Kind {
	case "bin":
		bm := mapping.NewBinMapper(ms.Ranks, ms.FilterRadius)
		bm.Relaxed = ms.RelaxedBins
		if ms.MidpointSplit {
			bm.Policy = mapping.SplitMidpoint
		}
		return bm, bm, nil
	case "element", "hilbert", "weighted", "ohhelp":
		if ms.Elements == ([3]int{}) {
			return nil, nil, errors.New("pipeline: element/hilbert/weighted/ohhelp mapping needs the element grid")
		}
		n := ms.N
		if n < 1 {
			n = 1
		}
		m, err := mesh.New(ms.Domain, ms.Elements[0], ms.Elements[1], ms.Elements[2], n)
		if err != nil {
			return nil, nil, fmt.Errorf("pipeline: %w", err)
		}
		switch ms.Kind {
		case "hilbert":
			return mapping.NewHilbertMapper(m, ms.Ranks), nil, nil
		case "weighted":
			return mapping.NewWeightedMapper(m, ms.Ranks), nil, nil
		}
		if !spec.None() {
			// The dynamic mapper installs the static bisection itself on the
			// first frame and re-decomposes at policy epochs.
			return mapping.NewDynamicMapper(m, ms.Ranks, spec.New()), nil, nil
		}
		d, err := mesh.Decompose(m, ms.Ranks)
		if err != nil {
			return nil, nil, fmt.Errorf("pipeline: %w", err)
		}
		if ms.Kind == "ohhelp" {
			return mapping.NewHelperMapper(m, d), nil, nil
		}
		return mapping.NewElementMapper(m, d), nil, nil
	default:
		return nil, nil, fmt.Errorf("pipeline: unknown mapping %q", ms.Kind)
	}
}

// GeneratorBuilder is the Dynamic Workload Generator wired as a pipeline
// stage: a FrameSink that folds frames into a workload and also records
// per-frame bin counts when the mapper is bin-based.
type GeneratorBuilder struct {
	Gen  *core.Generator
	Bins *mapping.BinMapper // nil unless bin mapping

	BinsPerFrame []int
}

// NewGeneratorBuilder builds the mapper described by ms and a workload
// generator over it. Workers > 1 enables the generator's parallel fill.
func NewGeneratorBuilder(ms MapperSpec, workers int) (*GeneratorBuilder, error) {
	mapper, bins, err := ms.Build()
	if err != nil {
		return nil, err
	}
	gen, err := core.NewGenerator(core.Config{
		Mapper:       mapper,
		FilterRadius: ms.FilterRadius,
		Workers:      workers,
	})
	if err != nil {
		return nil, err
	}
	return &GeneratorBuilder{Gen: gen, Bins: bins}, nil
}

// SetObs forwards an observability registry to the wrapped generator so
// its per-frame fill latency and ghost-query counters are recorded. Call
// before the first Frame.
func (b *GeneratorBuilder) SetObs(reg *obs.Registry) { b.Gen.SetObs(reg) }

// Frame implements FrameSink.
func (b *GeneratorBuilder) Frame(iteration int, pos []geom.Vec3) error {
	if err := b.Gen.Frame(iteration, pos); err != nil {
		return err
	}
	if b.Bins != nil {
		b.BinsPerFrame = append(b.BinsPerFrame, b.Bins.NumBins())
	}
	return nil
}

// Finish returns the workload built from every frame seen.
func (b *GeneratorBuilder) Finish() (*core.Workload, error) { return b.Gen.Finish() }

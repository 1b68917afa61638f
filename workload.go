package picpredict

import (
	"bufio"
	"context"
	"fmt"
	"io"

	"picpredict/internal/core"
	"picpredict/internal/metrics"
	"picpredict/internal/obs"
	"picpredict/internal/pipeline"
	"picpredict/internal/sparse"
)

// MappingKind names a particle mapping algorithm.
type MappingKind string

const (
	// MappingElement is element-based mapping (§III-B): a particle lives
	// with the processor that owns its spectral element.
	MappingElement MappingKind = "element"
	// MappingBin is bin-based mapping (§III-C): the particle domain is
	// recursively cut into bins distributed across processors.
	MappingBin MappingKind = "bin"
	// MappingHilbert orders particles along the Hilbert curve of their
	// elements and splits the order into equal chunks (ref [10]).
	MappingHilbert MappingKind = "hilbert"
	// MappingWeighted distributes elements so every processor carries a
	// similar combined grid+particle load, repartitioning lazily when a
	// processor overloads (Zhai et al., ref [11]).
	MappingWeighted MappingKind = "weighted"
	// MappingOhHelp keeps element-based primary ownership but exports the
	// excess of overloaded processors to underloaded helpers (OhHelp,
	// ref [16]).
	MappingOhHelp MappingKind = "ohhelp"
)

// WorkloadOptions configures the Dynamic Workload Generator — the paper's
// configuration file (§II-A).
type WorkloadOptions struct {
	// Ranks is the processor count R to generate workload for.
	Ranks int
	// Mapping selects the particle mapping algorithm.
	Mapping MappingKind
	// FilterRadius is the projection filter size (absolute length). For
	// bin mapping it doubles as the threshold bin size; a positive value
	// also enables ghost-particle workload generation.
	FilterRadius float64
	// RelaxedBins removes the processor-count limit on bin splitting
	// (Fig 6's "relaxed" analysis mode). Only meaningful for MappingBin.
	RelaxedBins bool
	// MidpointSplit switches the bin planar cut from the median particle
	// to the spatial midpoint (ablation).
	MidpointSplit bool
	// Workers sets the generator's worker-goroutine count for the
	// per-frame matrix fills (0 or 1 runs serially). The workload is
	// identical for any value.
	Workers int
	// Rebalance selects a dynamic load-balancing policy for element
	// mapping ("", "none", "periodic:K", "threshold:F", "diffusion:F[/R]"
	// — see internal/rebalance). Empty/none keeps the static decomposition.
	// Any other value requires MappingElement and produces a workload with
	// migration matrices the simulator prices explicitly.
	Rebalance string
}

// Workload is the Dynamic Workload Generator output plus derived metrics:
// the Computation and Communication matrices for real and ghost particles.
type Workload struct {
	inner *core.Workload
	// binsPerFrame records the bin count of every frame when bin mapping
	// was used (empty otherwise).
	binsPerFrame []int
	opts         WorkloadOptions
}

// GenerateWorkload mimics the selected mapping algorithm over every trace
// frame and returns the synthesised workload. One trace serves any Ranks
// value — the core scalability-prediction property.
func (t *Trace) GenerateWorkload(opts WorkloadOptions) (*Workload, error) {
	return t.GenerateWorkloadContext(context.Background(), opts)
}

// GenerateWorkloadContext is GenerateWorkload under a context: the trace
// streams through the pipeline's workload-builder stage frame by frame, and
// cancelling ctx stops generation between frames. A registry attached to
// ctx with obs.With instruments the generator's per-frame fill times.
func (t *Trace) GenerateWorkloadContext(ctx context.Context, opts WorkloadOptions) (*Workload, error) {
	builder, err := pipeline.NewGeneratorBuilder(t.mapperSpec(opts), opts.Workers)
	if err != nil {
		return nil, fmt.Errorf("picpredict: %w", err)
	}
	builder.SetObs(obs.From(ctx))
	src := &pipeline.SliceSource{Iterations: t.iterations, Positions: t.positions, Np: t.np}
	if err := pipeline.Stream(ctx, src, builder); err != nil {
		return nil, fmt.Errorf("picpredict: %w", err)
	}
	inner, err := builder.Finish()
	if err != nil {
		return nil, fmt.Errorf("picpredict: %w", err)
	}
	return &Workload{inner: inner, binsPerFrame: builder.BinsPerFrame, opts: opts}, nil
}

// mapperSpec translates facade options plus this trace's mesh metadata into
// the pipeline's mapper description.
func (t *Trace) mapperSpec(opts WorkloadOptions) pipeline.MapperSpec {
	return pipeline.MapperSpec{
		Kind:          string(opts.Mapping),
		Ranks:         opts.Ranks,
		FilterRadius:  opts.FilterRadius,
		RelaxedBins:   opts.RelaxedBins,
		MidpointSplit: opts.MidpointSplit,
		Rebalance:     opts.Rebalance,
		Domain:        t.domain,
		Elements:      t.mesh.elements,
		N:             t.mesh.n,
	}
}

// Options returns the generator options this workload was produced with
// (zero value for workloads loaded from a file).
func (w *Workload) Options() WorkloadOptions { return w.opts }

// Ranks returns the processor count the workload was generated for.
func (w *Workload) Ranks() int { return w.inner.Ranks }

// Frames returns the number of sampling intervals T.
func (w *Workload) Frames() int { return w.inner.RealComp.Frames() }

// Iterations returns the application iteration of every interval.
func (w *Workload) Iterations() []int { return w.inner.RealComp.Iterations() }

// ResidentBytes returns the heap the workload's matrices and bin counts
// hold: 8 B per dense computation-matrix cell, 16 B per sealed
// communication entry — what a cache that keeps the workload is charged.
func (w *Workload) ResidentBytes() int64 {
	return w.inner.ResidentBytes() + 8*int64(len(w.binsPerFrame))
}

// At returns the real-particle count of rank r at interval k —
// P_comp[r][k].
func (w *Workload) At(r, k int) int64 { return w.inner.RealComp.At(r, k) }

// GhostAt returns the ghost-particle count of rank r at interval k, or 0
// when ghosts were disabled.
func (w *Workload) GhostAt(r, k int) int64 {
	if w.inner.GhostComp == nil {
		return 0
	}
	return w.inner.GhostComp.At(r, k)
}

// Peak returns the maximum particles-per-processor over the whole run (the
// y-axis of Figs 5 and 8).
func (w *Workload) Peak() int64 { return w.inner.RealComp.Peak() }

// PeakPerFrame returns the per-interval maximum particles per processor —
// the Fig 5 series.
func (w *Workload) PeakPerFrame() []int64 { return w.inner.RealComp.PeakPerFrame() }

// GhostPeak returns the maximum ghost particles per processor.
func (w *Workload) GhostPeak() int64 {
	if w.inner.GhostComp == nil {
		return 0
	}
	return w.inner.GhostComp.Peak()
}

// TotalGhosts returns the total number of ghost particles materialised per
// interval (Fig 10b's driver).
func (w *Workload) TotalGhosts() []int64 {
	if w.inner.GhostComp == nil {
		return nil
	}
	return w.inner.GhostComp.TotalPerFrame()
}

// NonZeroRanksPerFrame returns, per interval, how many ranks hold at least
// one particle (Fig 1b).
func (w *Workload) NonZeroRanksPerFrame() []int { return w.inner.RealComp.NonZeroRanksPerFrame() }

// Utilization is the paper's Resource Utilization metric (§II-A, Fig 9).
type Utilization struct {
	// Mean is the run-average fraction of ranks with ≥1 particle.
	Mean float64
	// Ever is the fraction of ranks that held a particle at any point.
	Ever float64
}

// Utilization computes the RU metrics of the real-particle workload.
func (w *Workload) Utilization() Utilization {
	u := metrics.Utilization(w.inner.RealComp)
	return Utilization{Mean: u.Mean, Ever: u.Ever}
}

// Imbalance returns the worst-interval load-imbalance factor max/mean.
func (w *Workload) Imbalance() float64 { return metrics.Imbalance(w.inner.RealComp) }

// LoadDistribution summarises the per-rank load spread at the busiest
// interval: percentiles, mean, and the Gini coefficient (0 = perfectly
// balanced, →1 = a handful of processors carry everything).
type LoadDistribution struct {
	Frame                   int
	Min, P50, P90, P99, Max int64
	Mean                    float64
	Gini                    float64
}

// Distribution computes the busiest-interval load distribution.
func (w *Workload) Distribution() (LoadDistribution, error) {
	d, err := metrics.LoadDistribution(w.inner.RealComp)
	if err != nil {
		return LoadDistribution{}, fmt.Errorf("picpredict: %w", err)
	}
	return LoadDistribution{
		Frame: d.Frame, Min: d.Min, P50: d.P50, P90: d.P90, P99: d.P99, Max: d.Max,
		Mean: d.Mean, Gini: d.Gini,
	}, nil
}

// BinsPerFrame returns the bin count of every interval when bin mapping
// was used (nil otherwise) — the Fig 6 series.
func (w *Workload) BinsPerFrame() []int { return w.binsPerFrame }

// MaxBins returns the largest bin count across the run; with RelaxedBins it
// is the paper's upper limit on useful processor count (Fig 6).
func (w *Workload) MaxBins() int {
	m := 0
	for _, b := range w.binsPerFrame {
		if b > m {
			m = b
		}
	}
	return m
}

// MigrationsPerFrame returns, per interval, the total number of particles
// that moved between ranks since the previous interval.
func (w *Workload) MigrationsPerFrame() []int64 { return w.inner.RealComm.TotalPerFrame() }

// CommEntry is one non-zero communication-matrix element.
type CommEntry struct {
	Src, Dst int
	Count    int64
}

// CommAt returns the non-zero real-particle communication entries of
// interval k (movements between intervals k−1 and k).
func (w *Workload) CommAt(k int) []CommEntry {
	es := w.inner.RealComm.At(k).Entries()
	out := make([]CommEntry, len(es))
	for i, e := range es {
		out[i] = CommEntry{Src: e.Src, Dst: e.Dst, Count: e.Count}
	}
	return out
}

// GhostCommAt returns the non-zero ghost-transfer entries of interval k
// (ghost copies sent home→ghost rank during the interval), or nil when
// ghost generation was disabled.
func (w *Workload) GhostCommAt(k int) []CommEntry {
	if w.inner.GhostComm == nil {
		return nil
	}
	es := w.inner.GhostComm.At(k).Entries()
	out := make([]CommEntry, len(es))
	for i, e := range es {
		out[i] = CommEntry{Src: e.Src, Dst: e.Dst, Count: e.Count}
	}
	return out
}

// HasMigration reports whether the workload carries rebalance-migration
// matrices (generated under a rebalance policy, or loaded from a file that
// stored them).
func (w *Workload) HasMigration() bool { return w.inner.MigElemComm != nil }

// MigrationEpochs returns how many intervals performed a rebalance (had at
// least one element change owners); 0 for static mappings.
func (w *Workload) MigrationEpochs() int {
	if w.inner.MigElemComm == nil {
		return 0
	}
	epochs := 0
	for _, n := range w.inner.MigElemComm.TotalPerFrame() {
		if n > 0 {
			epochs++
		}
	}
	return epochs
}

// MigrationTotals returns the total elements and resident particles that
// changed owners across all rebalance epochs (0, 0 for static mappings).
func (w *Workload) MigrationTotals() (elements, particles int64) {
	if w.inner.MigElemComm == nil {
		return 0, 0
	}
	for _, n := range w.inner.MigElemComm.TotalPerFrame() {
		elements += n
	}
	for _, n := range w.inner.MigPartComm.TotalPerFrame() {
		particles += n
	}
	return elements, particles
}

// MigrationCommAt returns the non-zero rebalance-transfer entries of
// interval k — elements (and the particles resident in them) moving from old
// to new owners — or nil, nil when the workload has no migration matrices.
func (w *Workload) MigrationCommAt(k int) (elements, particles []CommEntry) {
	if w.inner.MigElemComm == nil {
		return nil, nil
	}
	toEntries := func(es []sparse.Entry) []CommEntry {
		out := make([]CommEntry, len(es))
		for i, e := range es {
			out[i] = CommEntry{Src: e.Src, Dst: e.Dst, Count: e.Count}
		}
		return out
	}
	return toEntries(w.inner.MigElemComm.At(k).Entries()), toEntries(w.inner.MigPartComm.At(k).Entries())
}

// WriteHeatmapCSV emits the real-particle computation matrix as CSV (one
// row per rank) — the Fig 1a heat-map data.
func (w *Workload) WriteHeatmapCSV(out io.Writer) error {
	return metrics.WriteHeatmapCSV(out, w.inner.RealComp)
}

// WriteCommCSV emits the real-particle communication matrix as CSV with
// columns interval,iteration,src,dst,count — one row per non-zero entry of
// P_comm, the per-interval particle transfers between processor pairs.
func (w *Workload) WriteCommCSV(out io.Writer) error {
	bw := bufio.NewWriter(out)
	if _, err := fmt.Fprintln(bw, "interval,iteration,src,dst,count"); err != nil {
		return err
	}
	its := w.Iterations()
	for k := 0; k < w.Frames(); k++ {
		for _, e := range w.inner.RealComm.At(k).Entries() {
			if _, err := fmt.Fprintf(bw, "%d,%d,%d,%d,%d\n", k, its[k], e.Src, e.Dst, e.Count); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// RenderHeatmap draws an ASCII heat map of the computation matrix,
// down-sampled to at most rows×cols cells.
func (w *Workload) RenderHeatmap(out io.Writer, rows, cols int) error {
	return metrics.RenderHeatmapASCII(out, w.inner.RealComp, rows, cols)
}

// Write serialises the workload matrices to w in a compact binary format;
// ReadWorkload loads them back. Saving a generated workload lets the
// (expensive) simulation and accuracy studies replay it without re-running
// the generator.
func (w *Workload) Write(out io.Writer) error {
	if err := w.inner.Write(out); err != nil {
		return fmt.Errorf("picpredict: %w", err)
	}
	return nil
}

// ReadWorkload parses a workload saved with Workload.Write. Bin-count
// bookkeeping (BinsPerFrame/MaxBins) is not serialised and reads back
// empty. Any damage fails the read; use ReadWorkloadSalvaged to keep the
// intact prefix of a torn file instead.
func ReadWorkload(r io.Reader) (*Workload, error) {
	inner, err := core.ReadWorkload(r)
	if err != nil {
		return nil, fmt.Errorf("picpredict: %w", err)
	}
	return &Workload{inner: inner}, nil
}

// ReadWorkloadSalvaged parses a workload, tolerating a damaged tail: the
// intact leading intervals of a torn or corrupt file are returned together
// with a non-nil *Salvage describing the damage (nil when the file is
// whole). The error is non-nil only when nothing usable could be read.
func ReadWorkloadSalvaged(r io.Reader) (*Workload, *Salvage, error) {
	inner, damage, err := core.ReadWorkloadSalvaged(r)
	if err != nil {
		return nil, nil, fmt.Errorf("picpredict: %w", err)
	}
	out := &Workload{inner: inner}
	if damage != nil {
		return out, &Salvage{Recovered: inner.RealComp.Frames(), Damage: fmt.Errorf("picpredict: %w", damage)}, nil
	}
	return out, nil, nil
}

// internalWorkload exposes the core workload to sibling facade files.
func (w *Workload) internalWorkload() *core.Workload { return w.inner }

package bsst

import (
	"fmt"

	"picpredict/internal/core"
	"picpredict/internal/kernels"
	"picpredict/internal/obs"
)

// Platform binds fitted kernel models to an application and machine
// configuration, ready to replay a generated workload.
type Platform struct {
	// Models holds one fitted model per kernel name.
	Models kernels.Models
	// Machine is the target system.
	Machine Machine
	// N is the grid resolution within an element; Filter the projection
	// filter size (element widths) — application configuration the
	// feature vectors need.
	N, Filter float64
	// TotalElements is N_el summed over ranks; the element workload is
	// uniformly distributed, so each rank gets TotalElements/R (§IV-B).
	TotalElements int
	// Obs, when non-nil, records simulator telemetry: per-interval
	// simulated time (bsst.interval_sim_ns, the predicted wall clock) next
	// to the simulator's own per-interval compute cost
	// (bsst.interval_wall_ns) — the simulated-vs-wall comparison that
	// shows how much faster than the application the predictor runs.
	Obs *obs.Registry
}

// Validate reports the first configuration problem.
func (p *Platform) Validate() error {
	if len(p.Models) == 0 {
		return fmt.Errorf("bsst: no kernel models")
	}
	for _, k := range kernels.All() {
		if p.Models[k.Name] == nil {
			return fmt.Errorf("bsst: missing model for kernel %s", k.Name)
		}
	}
	if p.TotalElements <= 0 {
		return fmt.Errorf("bsst: TotalElements = %d", p.TotalElements)
	}
	return p.Machine.validate()
}

// workloadAt builds the kernel workload parameter vector of one rank.
func (p *Platform) workloadAt(np, ngp int64, ranks int) kernels.Workload {
	return kernels.Workload{
		Np:     float64(np),
		Ngp:    float64(ngp),
		Nel:    float64(p.TotalElements) / float64(ranks),
		N:      p.N,
		Filter: p.Filter,
	}
}

// IterTime predicts the per-iteration compute time of a rank with np real
// and ngp ghost particles: the sum of the five kernel models. Negative
// kernel predictions — possible when a fitted model extrapolates far below
// its training range — are unphysical and clamp to zero.
func (p *Platform) IterTime(np, ngp int64, ranks int) (float64, error) {
	w := p.workloadAt(np, ngp, ranks)
	x := w.Features()
	t := 0.0
	for _, k := range kernels.All() {
		v, err := p.Models[k.Name].Predict(x)
		if err != nil {
			return 0, fmt.Errorf("bsst: %s model: %w", k.Name, err)
		}
		if v > 0 {
			t += v
		}
	}
	return t, nil
}

// Prediction is the simulated execution of a workload on the platform.
type Prediction struct {
	// Ranks is the processor count simulated.
	Ranks int
	// IntervalWall[k] is the simulated wall time of sampling interval k
	// (SampleEvery application iterations).
	IntervalWall []float64
	// Compute and Comm split each interval's critical path into its
	// compute and communication parts.
	Compute, Comm []float64
	// Migration[k] is the extra wall time interval k pays for rebalance
	// state transfers — the interval wall with migration messages minus the
	// wall without them, so Compute + Comm + Migration = IntervalWall. Nil
	// when the workload carries no migration matrices (static mappings).
	Migration []float64
	// RankBusy is each rank's accumulated compute time across the run;
	// dividing by Ranks×Total gives the predicted compute utilization —
	// the simulator's view of the idle-processor pathology of Fig 1.
	RankBusy []float64
	// Total is the simulated application wall time.
	Total float64
}

// MeanUtilization returns the run-average fraction of wall time the ranks
// spend computing (1 = perfectly busy machine).
func (p *Prediction) MeanUtilization() float64 {
	if p.Total <= 0 || p.Ranks == 0 {
		return 0
	}
	sum := 0.0
	for _, b := range p.RankBusy {
		sum += b
	}
	return sum / (float64(p.Ranks) * p.Total)
}

// MigrationSec returns the total predicted migration cost across the run
// (0 for static mappings).
func (p *Prediction) MigrationSec() float64 {
	sum := 0.0
	for _, m := range p.Migration {
		sum += m
	}
	return sum
}

// frameCounts returns the real and ghost counts of rank r at frame k,
// tolerating a workload without ghost matrices.
func frameCounts(wl *core.Workload, r, k int) (np, ngp int64) {
	np = wl.RealComp.At(r, k)
	if wl.GhostComp != nil {
		ngp = wl.GhostComp.At(r, k)
	}
	return np, ngp
}

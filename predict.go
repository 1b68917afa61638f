package picpredict

import (
	"fmt"

	"picpredict/internal/bsst"
	"picpredict/internal/kernels"
	"picpredict/internal/obs"
)

// PlatformOptions configures the Simulation Platform (§II-C).
type PlatformOptions struct {
	// TotalElements is the application's total spectral-element count;
	// the element workload is distributed uniformly across ranks.
	TotalElements int
	// N is the grid resolution within one element.
	N float64
	// Filter is the projection filter size in element widths.
	Filter float64
	// Machine selects the target system model; the zero value means
	// Quartz (§IV-A).
	Machine *MachineSpec
	// Obs, when non-nil, records per-interval simulator telemetry
	// (simulated vs wall time) into the registry.
	Obs *obs.Registry
}

// MachineSpec is a target-system interconnect model.
type MachineSpec struct {
	Name             string
	LatencySec       float64
	BandwidthBps     float64
	BytesPerParticle float64
	// BytesPerGridPoint is the per-grid-point field payload a rebalance
	// epoch ships when an element changes owner. Zero selects the built-in
	// default (8 double-precision field variables).
	BytesPerGridPoint float64
}

// QuartzMachine returns the default Quartz machine model (§IV-A).
func QuartzMachine() MachineSpec { return machineSpecOf(bsst.Quartz()) }

// VulcanMachine returns the LLNL Vulcan (BlueGene/Q) machine model of the
// paper's Fig 1 experiments.
func VulcanMachine() MachineSpec { return machineSpecOf(bsst.Vulcan()) }

// TitanMachine returns the ORNL Titan machine model (ref [15]).
func TitanMachine() MachineSpec { return machineSpecOf(bsst.Titan()) }

// MachineNames lists the built-in target-system presets, default first —
// the machine axis a capacity-planning sweep enumerates.
func MachineNames() []string { return []string{"quartz", "vulcan", "titan"} }

// MachineByName returns a preset by name: quartz, vulcan, or titan.
func MachineByName(name string) (MachineSpec, error) {
	m, ok := bsst.ByName(name)
	if !ok {
		return MachineSpec{}, fmt.Errorf("picpredict: unknown machine %q (quartz, vulcan, titan)", name)
	}
	return machineSpecOf(m), nil
}

func machineSpecOf(m bsst.Machine) MachineSpec {
	return MachineSpec{
		Name:              m.Name,
		LatencySec:        m.Latency,
		BandwidthBps:      m.Bandwidth,
		BytesPerParticle:  m.BytesPerParticle,
		BytesPerGridPoint: m.BytesPerGridPoint,
	}
}

// Platform is the configured system-level simulator: fitted models plus a
// machine and application configuration.
type Platform struct {
	inner *bsst.Platform
}

// NewPlatform assembles a simulation platform from trained models.
func NewPlatform(models Models, opts PlatformOptions) (*Platform, error) {
	machine := bsst.Quartz()
	if opts.Machine != nil {
		machine = bsst.Machine{
			Name:              opts.Machine.Name,
			Latency:           opts.Machine.LatencySec,
			Bandwidth:         opts.Machine.BandwidthBps,
			BytesPerParticle:  opts.Machine.BytesPerParticle,
			BytesPerGridPoint: opts.Machine.BytesPerGridPoint,
		}
	}
	p := &bsst.Platform{
		Models:        models.inner,
		Machine:       machine,
		N:             opts.N,
		Filter:        opts.Filter,
		TotalElements: opts.TotalElements,
		Obs:           opts.Obs,
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("picpredict: %w", err)
	}
	return &Platform{inner: p}, nil
}

// Prediction is a simulated application execution.
type Prediction struct {
	// Ranks is the simulated processor count.
	Ranks int
	// IntervalWall is the simulated wall time of every sampling interval.
	IntervalWall []float64
	// Compute and Comm split each interval's critical path.
	Compute, Comm []float64
	// Migration is each interval's priced rebalance state-transfer cost, so
	// Compute + Comm + Migration = IntervalWall. Nil for static mappings.
	Migration []float64
	// RankBusy is each rank's accumulated compute time across the run.
	RankBusy []float64
	// Total is the simulated application wall time in seconds.
	Total float64
}

// MeanUtilization returns the run-average fraction of wall time ranks spend
// computing — the simulator's view of the Fig 1 idle-processor pathology.
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

// MigrationSec returns the run total of priced rebalance-migration cost
// (0 for static mappings).
func (p *Prediction) MigrationSec() float64 {
	sum := 0.0
	for _, m := range p.Migration {
		sum += m
	}
	return sum
}

func fromInner(p *bsst.Prediction) *Prediction {
	return &Prediction{
		Ranks:        p.Ranks,
		IntervalWall: p.IntervalWall,
		Compute:      p.Compute,
		Comm:         p.Comm,
		Migration:    p.Migration,
		RankBusy:     p.RankBusy,
		Total:        p.Total,
	}
}

// SimulateBSP replays a workload through the Simulation Platform's
// bulk-synchronous recurrence and returns the predicted execution profile.
func (p *Platform) SimulateBSP(w *Workload) (*Prediction, error) {
	pred, err := p.inner.SimulateBSP(w.internalWorkload())
	if err != nil {
		return nil, fmt.Errorf("picpredict: %w", err)
	}
	return fromInner(pred), nil
}

// KernelAccuracy evaluates every kernel model's MAPE against a synthetic
// testbed with the given relative noise over the per-rank per-interval
// workloads of w — the Fig 7 methodology.
func (p *Platform) KernelAccuracy(w *Workload, noise float64, seed int64) (map[string]float64, error) {
	acc, err := p.inner.KernelAccuracy(w.internalWorkload(), kernels.NewSynthetic(noise, seed))
	if err != nil {
		return nil, fmt.Errorf("picpredict: %w", err)
	}
	return acc, nil
}

// MeanAccuracy averages per-kernel MAPEs into the single headline figure.
func MeanAccuracy(perKernel map[string]float64) float64 { return bsst.MeanAccuracy(perKernel) }

// EndToEndAccuracy compares the platform's predicted total compute time
// with a noisy-testbed replay of the same workload, returning (predicted,
// measured, error %).
func (p *Platform) EndToEndAccuracy(w *Workload, noise float64, seed int64) (predicted, measured, errPct float64, err error) {
	return p.inner.EndToEndAccuracy(w.internalWorkload(), kernels.NewSynthetic(noise, seed))
}

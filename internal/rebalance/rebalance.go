// Package rebalance decides when and how the element→processor assignment
// changes as particles migrate through a run.
//
// The static recursive-bisection decomposition (internal/mesh) is computed
// once from geometry alone, so as the particle phase drifts — the paper's
// Hele-Shaw bed dispersal being the canonical case — per-rank load skews and
// only ever gets worse. Following the CMT-nek dynamic-load-balancing line
// (Zhai et al.), a rebalance Policy watches the per-element load each frame
// and may emit a new owner assignment; the mapping layer swaps assignments at
// those epochs and records the element/particle state that moves between old
// and new owners so the BSP simulator can price the migration as LogP
// messages. Rebalancing is therefore never assumed free: every policy's
// benefit is reported net of its transfer cost.
//
// Three policies are provided: Periodic re-bisects on a fixed cadence,
// Threshold re-bisects only when measured imbalance exceeds a factor, and
// Diffusion shifts boundary elements from overloaded ranks to underloaded
// face-neighbor ranks without a global rebuild. None of them fires at frame
// 0, where the mapping layer installs the static bisection. The mapping
// layer's weighted mapping (mapping.NewWeightedMapper) is one more Policy:
// it cuts the Hilbert element order into chunks of equal load at frame 0,
// replacing the static bisection, and again whenever Imbalance outgrows
// what its last cut achieved.
package rebalance

import (
	"picpredict/internal/mesh"
)

// Load is the per-frame workload snapshot a Policy decides from.
type Load struct {
	// Frame is the 0-based frame index within the run.
	Frame int
	// Ranks is the number of processors.
	Ranks int
	// Owner[e] is the rank currently owning element e. Policies must treat
	// it as read-only and return a fresh slice when reassigning.
	Owner []int
	// Counts[e] is the number of particles resident in element e this frame.
	Counts []int64
	// GridLoad is the per-element fluid work expressed in particle-
	// equivalent units (the mapping layer's grid weight × N³). Every
	// policy weighs element e as GridLoad + Counts[e], so empty elements
	// still carry their grid's share.
	GridLoad float64
}

// Policy is one rebalancing strategy. Decide is called once per frame with
// the current assignment and load; it returns a new element→rank owner slice
// to install, or nil to keep the current assignment. Implementations must be
// deterministic: identical Load sequences must produce identical decisions.
type Policy interface {
	// Name returns the canonical spec string of this policy (Spec.String).
	Name() string
	// Decide returns the new owner assignment, or nil to keep the current
	// one. The returned slice must be freshly allocated.
	Decide(m *mesh.Mesh, ld Load) ([]int, error)
}

// weights returns the per-element load vector GridLoad + Counts[e].
func weights(ld Load) []float64 {
	w := make([]float64, len(ld.Counts))
	for e, c := range ld.Counts {
		w[e] = ld.GridLoad + float64(c)
	}
	return w
}

// Imbalance returns max/mean per-rank load under ld.Owner, the same figure
// of merit as Decomposition.Imbalance but weighted by resident particles. A
// perfectly balanced assignment returns 1; an empty load returns 0.
func Imbalance(ld Load) float64 {
	if ld.Ranks <= 0 {
		return 0
	}
	loads := make([]float64, ld.Ranks)
	for e, r := range ld.Owner {
		loads[r] += ld.GridLoad + float64(ld.Counts[e])
	}
	maxLoad, total := 0.0, 0.0
	for _, l := range loads {
		total += l
		if l > maxLoad {
			maxLoad = l
		}
	}
	if total <= 0 {
		return 0
	}
	return maxLoad * float64(ld.Ranks) / total
}

// Periodic re-bisects the mesh with particle-weighted recursive coordinate
// bisection every Every frames (never at frame 0, where the initial static
// assignment was just installed).
type Periodic struct {
	// Every is the rebalance cadence in frames (≥ 1).
	Every int
}

// Name implements Policy.
func (p Periodic) Name() string { return Spec{Kind: KindPeriodic, Every: p.Every}.String() }

// Decide implements Policy.
func (p Periodic) Decide(m *mesh.Mesh, ld Load) ([]int, error) {
	if p.Every < 1 || ld.Frame == 0 || ld.Frame%p.Every != 0 {
		return nil, nil
	}
	d, err := mesh.DecomposeWeighted(m, ld.Ranks, weights(ld))
	if err != nil {
		return nil, err
	}
	return d.Owner, nil
}

// Threshold re-bisects with particle-weighted recursive coordinate bisection
// whenever measured imbalance (max/mean per-rank load) exceeds Factor. If
// the weighted bisection cannot get below Factor the policy keeps firing;
// that is deliberate — an unchanged assignment migrates nothing, and a
// slightly changed one is priced honestly by the simulator.
type Threshold struct {
	// Factor is the imbalance trigger (> 1).
	Factor float64
}

// Name implements Policy.
func (t Threshold) Name() string { return Spec{Kind: KindThreshold, Factor: t.Factor}.String() }

// Decide implements Policy.
func (t Threshold) Decide(m *mesh.Mesh, ld Load) ([]int, error) {
	if ld.Frame == 0 || Imbalance(ld) <= t.Factor {
		return nil, nil
	}
	d, err := mesh.DecomposeWeighted(m, ld.Ranks, weights(ld))
	if err != nil {
		return nil, err
	}
	return d.Owner, nil
}

package main

import (
	"time"

	"picpredict"
	"picpredict/internal/obs"
)

// paperRanks is the paper's rank axis (§IV): 1044 to 8352 processors.
var paperRanks = []int{1044, 2088, 4176, 8352}

// kernelsPerInterval is how many kernel models the simulator evaluates per
// rank and interval.
var kernelsPerInterval = len(picpredict.KernelNames())

// histSum totals a histogram the program recorded in nanoseconds.
func histSum(s obs.Snapshot, name string) time.Duration {
	return time.Duration(s.Histograms[name].Sum)
}

// histMeanMs is a nanosecond histogram's mean in milliseconds.
func histMeanMs(s obs.Snapshot, name string) float64 {
	return s.Histograms[name].Mean / 1e6
}

// timerSum totals a timer the program recorded.
func timerSum(s obs.Snapshot, name string) time.Duration {
	return time.Duration(s.Timers[name].Nanos)
}

// stageSum totals the stage marks called name.
func stageSum(s obs.Snapshot, name string) time.Duration {
	var d time.Duration
	for _, st := range s.Stages {
		if st.Name == name {
			d += time.Duration(st.Nanos)
		}
	}
	return d
}

// coreLayers fills the core/mapping/rebalance group from the spans of the
// benchmark's own generate calls and the registry those calls were handed.
// particleFrames is Σ particles × frames over the builds.
func coreLayers(m map[string]float64, spans []span, snap obs.Snapshot, particleFrames int64) {
	build := sumByName(spans, "core.generate") + sumByName(spans, "core.generate.rebalance")
	fill := histSum(snap, "core.fill_serial_ns") + histSum(snap, "core.fill_parallel_ns")
	m["core.build_s"] = secs(build)
	m["core.fill_s"] = secs(fill)
	// Derived: the part of a build that is not matrix fill — mapping,
	// ghost assignment and frame streaming.
	m["mapping.assign_s"] = secs(build - fill)
	if build > 0 {
		m["core.mparticles_per_s"] = float64(particleFrames) / build.Seconds() / 1e6
	}
	for _, c := range []string{"core.frames", "core.tiles", "core.ghost_queries", "core.ghost_copies",
		obs.RebalanceEpochs, obs.RebalanceMigratedElements, obs.RebalanceMigratedParticles} {
		m[c] = float64(snap.Counters[c])
	}
	m["rebalance.build_s"] = secs(sumByName(spans, "core.generate.rebalance"))
}

// bsstLayers fills the bsst group from the benchmark's own simulate calls:
// their spans, the registry they were handed, and the predictions.
func bsstLayers(m map[string]float64, spans []span, snap obs.Snapshot, preds []*picpredict.Prediction) {
	sim := sumByName(spans, "bsst.predict")
	var evals int64
	for _, p := range preds {
		evals += int64(p.Ranks) * int64(len(p.IntervalWall)) * int64(kernelsPerInterval)
	}
	m["bsst.simulate_s"] = secs(sim)
	m["bsst.model_evals"] = float64(evals)
	if evals > 0 {
		m["bsst.ns_per_model_eval"] = float64(sim.Nanoseconds()) / float64(evals)
	}
	m["bsst.intervals"] = float64(snap.Counters["bsst.intervals"])
	m["bsst.accuracy_s"] = secs(sumByName(spans, "bsst.accuracy"))
}

// checkCoverage records whether the traced run's top-level spans cover its
// wall time, and reports the share.
func (e *env) checkCoverage(m map[string]float64) {
	spans := e.rec.snapshot()
	c := coverage(spans, e.rec.now())
	m["spans.coverage"] = c
	e.tally.add(outcome{ok: c >= minCoverage})
}

// inputsOf lists a run's common input record.
func (e *env) inputsOf(extra map[string]any) map[string]any {
	in := map[string]any{
		"seed":          e.seed,
		"nproc":         e.nproc,
		"cell_elements": cellElements,
		"filter_radius": cellFilterRadius,
	}
	for k, v := range extra {
		in[k] = v
	}
	return in
}

package main

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"picpredict"
	"picpredict/internal/obs"
	"picpredict/internal/scenario"
)

// fusedRanks are the rank counts one fused run predicts.
var fusedRanks = []int{1044, 8352}

const (
	// fusedSteps shortens the experiment-scale Hele-Shaw run (2000 steps).
	fusedSteps = 1000
	// fusedSetups is how many set-ups setup_s is the median of.
	fusedSetups = 2
)

// fusedSpec is the Hele-Shaw scenario at experiment scale (20k particles)
// with fewer steps, seeded from the benchmark seed.
func fusedSpec(seed int64) scenario.Spec {
	s := scenario.HeleShaw()
	s.Seed = deriveSeed(seed, "fused.scenario", 0)
	s.Steps = fusedSteps
	return s
}

// fusedOptions configures RunFused as picgen -fused does by default: bin
// mapping, a bounded channel of depth 4 between the simulation and the
// builders, and fast synthetic models trained while the simulation runs.
func fusedOptions(reg *obs.Registry, traceOut string) picpredict.FusedOptions {
	return picpredict.FusedOptions{
		Ranks:    fusedRanks,
		Mapping:  picpredict.MappingBin,
		Depth:    4,
		Train:    goldenModelOpts,
		Obs:      reg,
		TraceOut: traceOut,
	}
}

// fusedQuery is the platform configuration RunFused predicts with.
func fusedQuery(sc picpredict.Scenario) picpredict.QueryOptions {
	return picpredict.QueryOptions{TotalElements: sc.NumElements(), GridN: float64(sc.GridN())}
}

// replayFused replays the run's workloads with the run's models, checking
// every total against the run's own prediction bit for bit. One replay is
// all of the run's workloads, as the run itself predicted them.
func (e *env) replayFused(sc picpredict.Scenario, res *picpredict.FusedResult) (time.Duration, error) {
	var took time.Duration
	runtime.GC()
	for i, wl := range res.Workloads {
		t0 := time.Now()
		pred, err := picpredict.PredictWorkload(res.Models, wl, fusedQuery(sc))
		took += time.Since(t0)
		if err != nil {
			return 0, err
		}
		e.tally.add(outcome{ok: math.Float64bits(pred.Total) == math.Float64bits(res.Predictions[i].Total)})
	}
	return took, nil
}

// fusedTotals lists a run's predicted totals in rank-count order.
func fusedTotals(res *picpredict.FusedResult) []float64 {
	out := make([]float64, len(res.Predictions))
	for i, p := range res.Predictions {
		out[i] = p.Total
	}
	return out
}

// setupFused is one timed set-up: training the fast model set a fused run
// trains while its simulation streams — what a user of the file flow
// (picgen, then predict) pays before the first prediction. The first
// set-up trains with the run's own options: the fixture check uses those
// models, and every run must train exactly them again. Later set-ups use
// seeds of their own, so no set-up can reuse another's work.
func (e *env) setupFused(parent, rep int) (picpredict.Models, time.Duration, error) {
	opts := goldenModelOpts
	opts.Seed += int64(rep)
	runtime.GC()
	id := e.rec.start(parent, "kernels.train", "")
	t0 := time.Now()
	models, err := picpredict.TrainModels(opts)
	took := time.Since(t0)
	e.rec.end(id)
	return models, took, err
}

// sameModels reports whether two model sets render the same formulas.
func sameModels(a, b picpredict.Models) bool { return slices.Equal(a.Formulas(), b.Formulas()) }

// runFused is the fused-heleshaw workload: fusedSetups timed set-ups, then
// RunFused on the same seeded scenario through the measurement window (at
// least twice), each run checked against its own replays, the set-up's
// models and the first run's totals.
func runFused(ctx context.Context, e *env) (*report, error) {
	spec := fusedSpec(e.seed)
	sc := picpredict.FromSpec(spec)
	if e.traced {
		return tracedFused(ctx, e, spec, sc)
	}
	var setups []float64
	var reference picpredict.Models
	for i := 0; i < fusedSetups; i++ {
		models, took, err := e.setupFused(0, i)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			reference = models
		}
		setups = append(setups, took.Seconds())
	}
	if err := e.checkGolden(reference); err != nil {
		return nil, err
	}
	var runs, replays, first []float64
	err := repeat(e.seconds, 2, func(int) error {
		runtime.GC()
		t0 := time.Now()
		res, err := picpredict.RunFused(ctx, sc, fusedOptions(nil, ""))
		runs = append(runs, ms(time.Since(t0)))
		if err != nil {
			return err
		}
		replay, err := e.replayFused(sc, res)
		if err != nil {
			return err
		}
		replays = append(replays, ms(replay))
		// Every run of one seed must train the set-up's models and predict
		// the same bits.
		totals := fusedTotals(res)
		if first == nil {
			first = totals
		}
		e.tally.add(outcome{ok: sameModels(res.Models, reference) && digest(totals) == digest(first)})
		return nil
	})
	if err != nil {
		return nil, err
	}
	rss, err := peakRSSMiB()
	if err != nil {
		return nil, err
	}
	opTail, _ := tail(runs)
	replayTail, _ := tail(replays)
	opP50 := median(runs)
	return &report{
		e2e: map[string]float64{
			"setup_s":     median(setups),
			"op_p50_ms":   opP50,
			"peak_rss_mb": rss,
		},
		inputs: e.inputsOf(map[string]any{
			"scenario":    spec.Name,
			"particles":   spec.NumParticles,
			"steps":       spec.Steps,
			"frames":      spec.Steps/spec.SampleEvery + 1,
			"ranks":       fusedRanks,
			"mapping":     "bin",
			"depth":       4,
			"setups":      fusedSetups,
			"repetitions": len(runs),
		}),
		samples: map[string][]float64{"setup_s": setups, "op_ms": runs, "replay_ms": replays},
		aliases: map[string]metricValue{
			"fused_s":        {opP50 / 1000, "s"},
			"op_tail_ms":     {opTail, "ms"},
			"replay_p50_ms":  {median(replays), "ms"},
			"replay_tail_ms": {replayTail, "ms"},
		},
	}, nil
}

// tracedFused runs fused-heleshaw once more with spans: an untraced
// reference run and a traced one with a registry attached (both writing
// the trace), the file path over the written trace — ReadTrace, then
// GenerateWorkloadContext and PredictWorkload per rank count with the
// run's models, which must land on the fused run's bits — KernelAccuracy
// per workload, and a solo Scenario.Run of the same scenario.
func tracedFused(ctx context.Context, e *env, spec scenario.Spec, sc picpredict.Scenario) (*report, error) {
	top := e.rec.start(0, "setup", "")
	reference, _, err := e.setupFused(top, 0)
	e.rec.end(top)
	if err != nil {
		return nil, err
	}
	if err := e.checkGolden(reference); err != nil {
		return nil, err
	}

	runtime.GC()
	top = e.rec.start(0, "reference.untraced", "")
	t0 := time.Now()
	_, err = picpredict.RunFused(ctx, sc, fusedOptions(nil, filepath.Join(e.dir, "fused-ref.trace")))
	untraced := time.Since(t0)
	e.rec.end(top)
	if err != nil {
		return nil, err
	}

	reg := obs.New()
	tracePath := filepath.Join(e.dir, "fused.trace")
	runtime.GC()
	top = e.rec.start(0, "fused.run", "")
	t0 = time.Now()
	res, err := picpredict.RunFused(ctx, sc, fusedOptions(reg, tracePath))
	traced := time.Since(t0)
	e.rec.end(top)
	if err != nil {
		return nil, err
	}
	e.tally.add(outcome{ok: sameModels(res.Models, reference)})

	checkReg := obs.New()
	top = e.rec.start(0, "checks", "")
	id := e.rec.start(top, "trace.read", "")
	tr, err := readTrace(tracePath)
	e.rec.end(id)
	if err != nil {
		return nil, err
	}
	platform, err := picpredict.NewPlatform(res.Models, picpredict.PlatformOptions{
		TotalElements: sc.NumElements(), N: float64(sc.GridN()), Filter: 1,
	})
	if err != nil {
		return nil, err
	}
	var preds []*picpredict.Prediction
	for i, r := range fusedRanks {
		opts := res.Workloads[i].Options()
		opts.Workers = 0
		id := e.rec.start(top, "core.generate", "")
		wl, err := tr.GenerateWorkloadContext(obs.With(ctx, checkReg), opts)
		e.rec.end(id)
		if err != nil {
			return nil, err
		}
		q := fusedQuery(sc)
		q.Obs = checkReg
		id = e.rec.start(top, "bsst.predict", "")
		pred, err := picpredict.PredictWorkload(res.Models, wl, q)
		e.rec.end(id)
		if err != nil {
			return nil, err
		}
		preds = append(preds, pred)
		e.tally.add(outcome{ok: pred.Ranks == r &&
			math.Float64bits(pred.Total) == math.Float64bits(res.Predictions[i].Total)})

		id = e.rec.start(top, "bsst.accuracy", "")
		acc, err := platform.KernelAccuracy(res.Workloads[i], 0.105, int64(7+i))
		e.rec.end(id)
		if err != nil {
			return nil, err
		}
		same := len(acc) == len(res.Accuracy[i])
		for k, v := range acc {
			same = same && math.Float64bits(v) == math.Float64bits(res.Accuracy[i][k])
		}
		e.tally.add(outcome{ok: same})
	}
	e.rec.end(top)

	top = e.rec.start(0, "pic.run", "")
	t0 = time.Now()
	_, err = sc.Run()
	picRun := time.Since(t0)
	e.rec.end(top)
	if err != nil {
		return nil, err
	}

	m := map[string]float64{}
	spans := e.rec.snapshot()
	snap, checkSnap := reg.Snapshot(), checkReg.Snapshot()
	m["trace.read_s"] = secs(sumByName(spans, "trace.read"))
	m["kernels.train_s"] = secs(sumByName(spans, "kernels.train"))
	pf := int64(spec.NumParticles) * int64(res.Frames) * int64(len(fusedRanks))
	coreLayers(m, spans, checkSnap, pf)
	bsstLayers(m, spans, checkSnap, preds)
	m["pic.run_s"] = picRun.Seconds()
	m["pic.step_ms"] = ms(picRun) / float64(spec.Steps)
	m["fused.stream_s"] = secs(stageSum(snap, "stream"))
	m["fused.train_wait_s"] = secs(stageSum(snap, "train-wait"))
	m["fused.predict_s"] = secs(stageSum(snap, "predict"))
	m["pipeline.builder_frame_ms"] = histMeanMs(snap, "pipeline.stage.GeneratorBuilder.frame_ns")
	m["pipeline.chan_depth_p50"] = float64(snap.Histograms["pipeline.chan_depth"].P50)
	// Shares of the traced fused run's wall time.
	m["share.core"] = secs(histSum(snap, "core.fill_serial_ns")+histSum(snap, "core.fill_parallel_ns")) / traced.Seconds()
	m["share.bsst"] = (m["bsst.simulate_s"] + m["bsst.accuracy_s"]) / traced.Seconds()
	m["share.pic"] = picRun.Seconds() / traced.Seconds()
	m["trace_overhead"] = traced.Seconds()/untraced.Seconds() - 1
	m["check.digest"] = float64(digest(fusedTotals(res)))
	e.checkCoverage(m)
	return &report{
		layers: m,
		contrast: fmt.Sprintf("of the fused run a solo PIC solve takes %.0f%%, core fill %.0f%% and bsst %.0f%%",
			100*m["share.pic"], 100*m["share.core"], 100*m["share.bsst"]),
		inputs: e.inputsOf(map[string]any{
			"scenario":  spec.Name,
			"particles": spec.NumParticles,
			"steps":     spec.Steps,
			"ranks":     fusedRanks,
		}),
	}, nil
}

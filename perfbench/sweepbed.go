package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"picpredict"
	"picpredict/internal/obs"
	"picpredict/internal/sweep"
)

// sweepBedShape sizes the sweep-bed trace.
var sweepBedShape = bedShape{Particles: 30000, Frames: 8, Hold: 3}

// sweepSetups is how many set-ups setup_s is the median of.
const sweepSetups = 2

// sweepGrid is the priced grid: the paper's rank axis × {bin, element,
// element + threshold:1.5} × every machine — 36 configurations over 12
// shared builds.
func sweepGrid() sweep.Grid {
	return sweep.Grid{
		Ranks:      paperRanks,
		Mappings:   []picpredict.MappingKind{picpredict.MappingBin, picpredict.MappingElement},
		Rebalances: []string{"", "threshold:1.5"},
		Machines:   picpredict.MachineNames(),
	}
}

func sweepOptions(workers int, reg *obs.Registry) sweep.Options {
	return sweep.Options{
		Filter:         cellFilterRadius,
		Workers:        workers,
		TotalElements:  cellTotalElems,
		GridN:          cellGridN,
		FilterElements: cellFilterElems,
		Obs:            reg,
	}
}

// buildKey is one shared build of the grid.
type buildKey struct {
	ranks     int
	mapping   picpredict.MappingKind
	rebalance string
}

func (b buildKey) options() picpredict.WorkloadOptions {
	return picpredict.WorkloadOptions{
		Ranks: b.ranks, Mapping: b.mapping, Rebalance: b.rebalance, FilterRadius: cellFilterRadius,
	}
}

func (b buildKey) label() string {
	if b.rebalance != "" {
		return fmt.Sprintf("%d/%s+%s", b.ranks, b.mapping, b.rebalance)
	}
	return fmt.Sprintf("%d/%s", b.ranks, b.mapping)
}

// spanName names a generate span; rebalance builds get their own name so
// rebalance.build_s can be read off the spans.
func (b buildKey) spanName() string {
	if b.rebalance != "" {
		return "core.generate.rebalance"
	}
	return "core.generate"
}

// sweepBuilds lists the grid's builds in the sweep's enumeration order.
func sweepBuilds() []buildKey {
	var keys []buildKey
	for _, r := range paperRanks {
		keys = append(keys,
			buildKey{r, picpredict.MappingBin, ""},
			buildKey{r, picpredict.MappingElement, ""},
			buildKey{r, picpredict.MappingElement, "threshold:1.5"})
	}
	return keys
}

// sweepCheckBuilds is the fixed sample of builds whose configurations an
// untraced run re-prices standalone (a traced run re-prices all of them):
// one static build at the largest rank count, so every replay costs the
// same whatever the trace, and their median is not read off a boundary
// between two cost levels.
var sweepCheckBuilds = []buildKey{{8352, picpredict.MappingElement, ""}}

// bedSetup is one sweep-bed set-up: a fresh trace, written, read back, and
// a freshly trained model set.
type bedSetup struct {
	tr     *picpredict.Trace
	models picpredict.Models
	took   time.Duration
}

// bedTrace synthesizes the rep-th trace of the run, stores it as an
// artefact and reads it back.
func (e *env) bedTrace(parent, rep int) (*picpredict.Trace, error) {
	id := e.rec.start(parent, "trace.synth", "")
	tr, err := synthBed(deriveSeed(e.seed, "sweep-bed.trace", rep), sweepBedShape)
	e.rec.end(id)
	if err != nil {
		return nil, err
	}
	path := filepath.Join(e.dir, fmt.Sprintf("bed-%d.trace", rep))
	id = e.rec.start(parent, "trace.write", "")
	err = writeTrace(path, tr)
	e.rec.end(id)
	if err != nil {
		return nil, err
	}
	id = e.rec.start(parent, "trace.read", "")
	tr, err = readTrace(path)
	e.rec.end(id)
	if err != nil {
		return nil, err
	}
	return tr, os.Remove(path)
}

// setupBed is one timed set-up: the rep-th trace, and models trained with
// a seed of the set-up's own, so no set-up can reuse another's work. The
// first set-up's seed is goldenModelOpts', so the fixture check can use
// its models.
func (e *env) setupBed(parent, rep int) (*bedSetup, error) {
	runtime.GC()
	t0 := time.Now()
	tr, err := e.bedTrace(parent, rep)
	if err != nil {
		return nil, err
	}
	id := e.rec.start(parent, "kernels.train", "")
	opts := goldenModelOpts
	opts.Seed += int64(rep)
	models, err := picpredict.TrainModelsKind(picpredict.ModelSynthetic, opts)
	e.rec.end(id)
	if err != nil {
		return nil, err
	}
	return &bedSetup{tr: tr, models: models, took: time.Since(t0)}, nil
}

// runSweep prices the grid once.
func (e *env) runSweep(ctx context.Context, s *bedSetup, reg *obs.Registry) (*sweep.Result, time.Duration, error) {
	runtime.GC()
	t0 := time.Now()
	res, err := sweep.Run(obs.With(ctx, reg), s.tr, sweepGrid(), sweepOptions(e.nproc, reg),
		func(context.Context, picpredict.ModelKind) (picpredict.Models, error) { return s.models, nil })
	took := time.Since(t0)
	if err != nil {
		return nil, 0, err
	}
	e.tally.add(outcome{ok: res.Configs == 36 && res.SharedBuilds == len(sweepBuilds()) &&
		len(res.Frontier) == res.Configs})
	return res, took, nil
}

// frontierIndex maps each configuration to its frontier point.
func frontierIndex(res *sweep.Result) map[sweep.Config]sweep.Point {
	idx := make(map[sweep.Config]sweep.Point, len(res.Frontier))
	for _, p := range res.Frontier {
		idx[p.Config] = p
	}
	return idx
}

// machineSpec resolves a machine preset.
func machineSpec(name string) (*picpredict.MachineSpec, error) {
	m, err := picpredict.MachineByName(name)
	if err != nil {
		return nil, err
	}
	return &m, nil
}

// sweepQuery is the platform configuration the sweep prices with.
func sweepQuery(machine *picpredict.MachineSpec, reg *obs.Registry) picpredict.QueryOptions {
	return picpredict.QueryOptions{
		TotalElements:  cellTotalElems,
		GridN:          cellGridN,
		FilterElements: cellFilterElems,
		Machine:        machine,
		Obs:            reg,
	}
}

// repriceBuilds generates each build standalone and replays it on every
// machine, checking each prediction against the sweep's frontier point bit
// for bit. It returns the replay latencies and the predictions.
func (e *env) repriceBuilds(ctx context.Context, parent int, s *bedSetup, res *sweep.Result, keys []buildKey, reg *obs.Registry) ([]float64, []*picpredict.Prediction, error) {
	frontier := frontierIndex(res)
	var replays []float64
	var preds []*picpredict.Prediction
	gctx := obs.With(ctx, reg)
	for _, k := range keys {
		id := e.rec.start(parent, k.spanName(), k.label())
		wl, err := s.tr.GenerateWorkloadContext(gctx, k.options())
		e.rec.end(id)
		if err != nil {
			return nil, nil, err
		}
		runtime.GC()
		for _, name := range picpredict.MachineNames() {
			m, err := machineSpec(name)
			if err != nil {
				return nil, nil, err
			}
			id := e.rec.start(parent, "bsst.predict", k.label()+"@"+name)
			t0 := time.Now()
			pred, err := picpredict.PredictWorkload(s.models, wl, sweepQuery(m, reg))
			replays = append(replays, ms(time.Since(t0)))
			e.rec.end(id)
			if err != nil {
				return nil, nil, err
			}
			preds = append(preds, pred)
			p, found := frontier[sweep.Config{Ranks: k.ranks, Mapping: k.mapping, Machine: name,
				Kind: picpredict.ModelSynthetic, Rebalance: k.rebalance}]
			e.tally.add(outcome{ok: found &&
				math.Float64bits(p.TotalSec) == math.Float64bits(pred.Total) &&
				math.Float64bits(p.MigrationSec) == math.Float64bits(pred.MigrationSec())})
		}
	}
	return replays, preds, nil
}

// runSweepBed is the sweep-bed workload: sweepSetups timed set-ups, then
// sweeps through the measurement window (at least three, so the median
// leaves out the first sweep of the process, which runs on a cold heap),
// each pricing a fresh trace derived from the seed, so no build ever
// repeats.
func runSweepBed(ctx context.Context, e *env) (*report, error) {
	if e.traced {
		return tracedSweepBed(ctx, e)
	}
	var setups, sweeps, replays []float64
	var models []picpredict.Models
	for i := 0; i < sweepSetups; i++ {
		s, err := e.setupBed(0, i)
		if err != nil {
			return nil, err
		}
		setups = append(setups, s.took.Seconds())
		models = append(models, s.models)
	}
	if err := e.checkGolden(models[0]); err != nil {
		return nil, err
	}
	err := repeat(e.seconds, 3, func(rep int) error {
		tr, err := e.bedTrace(0, sweepSetups+rep)
		if err != nil {
			return err
		}
		s := &bedSetup{tr: tr, models: models[rep%len(models)]}
		res, took, err := e.runSweep(ctx, s, nil)
		if err != nil {
			return err
		}
		sweeps = append(sweeps, ms(took))
		rs, _, err := e.repriceBuilds(ctx, 0, s, res, sweepCheckBuilds, nil)
		replays = append(replays, rs...)
		return err
	})
	if err != nil {
		return nil, err
	}
	rss, err := peakRSSMiB()
	if err != nil {
		return nil, err
	}
	opTail, _ := tail(sweeps)
	replayTail, replayQ := tail(replays)
	opP50 := median(sweeps)
	return &report{
		e2e: map[string]float64{
			"setup_s":     median(setups),
			"op_p50_ms":   opP50,
			"peak_rss_mb": rss,
		},
		inputs: e.inputsOf(map[string]any{
			"trace":           sweepBedShape,
			"grid":            "ranks {1044,2088,4176,8352} x {bin, element, element+threshold:1.5} x {quartz,vulcan,titan}",
			"configs":         36,
			"builds":          len(sweepBuilds()),
			"sweep_workers":   e.nproc,
			"repetitions":     len(sweeps),
			"replay_samples":  len(replays),
			"replay_tail_pct": replayQ,
		}),
		samples: map[string][]float64{"setup_s": setups, "op_ms": sweeps, "replay_ms": replays},
		aliases: map[string]metricValue{
			"configs_per_s":  {36 / (opP50 / 1000), "configs/s"},
			"op_tail_ms":     {opTail, "ms"},
			"replay_p50_ms":  {median(replays), "ms"},
			"replay_tail_ms": {replayTail, "ms"},
		},
	}, nil
}

// tracedSweepBed runs sweep-bed once more with spans: a set-up, a first
// sweep whose frontier the layer pass is checked against, the sweep's
// calls made one layer at a time — one GenerateWorkloadContext per build
// key, one PredictWorkload per configuration — then an untraced sweep and
// sweep.Run with a registry attached, back to back on a warm heap, whose
// wall times give trace_overhead.
func tracedSweepBed(ctx context.Context, e *env) (*report, error) {
	top := e.rec.start(0, "setup", "")
	s, err := e.setupBed(top, 0)
	e.rec.end(top)
	if err != nil {
		return nil, err
	}
	if err := e.checkGolden(s.models); err != nil {
		return nil, err
	}

	top = e.rec.start(0, "reference.untraced", "")
	ref, _, err := e.runSweep(ctx, s, nil)
	e.rec.end(top)
	if err != nil {
		return nil, err
	}

	layerReg := obs.New()
	top = e.rec.start(0, "layers", "")
	_, preds, err := e.repriceBuilds(ctx, top, s, ref, sweepBuilds(), layerReg)
	e.rec.end(top)
	if err != nil {
		return nil, err
	}

	top = e.rec.start(0, "reference.untraced", "")
	_, untraced, err := e.runSweep(ctx, s, nil)
	e.rec.end(top)
	if err != nil {
		return nil, err
	}

	sweepReg := obs.New()
	top = e.rec.start(0, "sweep.run", "")
	res, traced, err := e.runSweep(ctx, s, sweepReg)
	e.rec.end(top)
	if err != nil {
		return nil, err
	}
	// The traced sweep must land on the untraced one's bits.
	totals := make([]float64, 0, len(res.Frontier))
	refIdx := frontierIndex(ref)
	same := len(ref.Frontier) == len(res.Frontier)
	for _, p := range res.Frontier {
		totals = append(totals, p.TotalSec)
		same = same && math.Float64bits(refIdx[p.Config].TotalSec) == math.Float64bits(p.TotalSec)
	}
	e.tally.add(outcome{ok: same})

	m := map[string]float64{}
	spans := e.rec.snapshot()
	layerSnap, sweepSnap := layerReg.Snapshot(), sweepReg.Snapshot()
	m["trace.read_s"] = secs(sumByName(spans, "trace.read"))
	m["kernels.train_s"] = secs(sumByName(spans, "kernels.train"))
	pf := int64(sweepBedShape.Particles) * int64(sweepBedShape.Frames) * int64(len(sweepBuilds()))
	coreLayers(m, spans, layerSnap, pf)
	bsstLayers(m, spans, layerSnap, preds)
	m["sweep.enumerate_s"] = secs(timerSum(sweepSnap, obs.SweepEnumerateNs))
	m["sweep.build_s"] = secs(timerSum(sweepSnap, obs.SweepBuildNs))
	m["sweep.evaluate_s"] = secs(timerSum(sweepSnap, obs.SweepEvaluateNs))
	m["sweep.rank_s"] = secs(timerSum(sweepSnap, obs.SweepRankNs))
	m["sweep.configs"] = float64(sweepSnap.Counters[obs.SweepConfigs])
	m["sweep.shared_builds"] = float64(sweepSnap.Counters[obs.SweepSharedBuilds])
	if b := m["sweep.shared_builds"]; b > 0 {
		m["sweep.configs_per_build"] = m["sweep.configs"] / b
	}
	m["pipeline.builder_frame_ms"] = histMeanMs(layerSnap, "pipeline.stage.GeneratorBuilder.frame_ns")
	// The layer-at-a-time pass is the sweep's work done serially: how it
	// splits between builds and simulation is the contrast this workload
	// exists for.
	layers := spanByName(spans, "layers")
	m["share.core"] = m["core.build_s"] / layers.dur().Seconds()
	m["share.bsst"] = m["bsst.simulate_s"] / layers.dur().Seconds()
	m["trace_overhead"] = traced.Seconds()/untraced.Seconds() - 1
	m["check.digest"] = float64(digest(totals))
	e.checkCoverage(m)
	return &report{
		layers: m,
		contrast: fmt.Sprintf("core builds take %.0f%% and bsst %.0f%% of the sweep's calls made one layer at a time; pic is absent",
			100*m["share.core"], 100*m["share.bsst"]),
		inputs: e.inputsOf(map[string]any{
			"trace":         sweepBedShape,
			"configs":       36,
			"builds":        len(sweepBuilds()),
			"sweep_workers": e.nproc,
		}),
	}, nil
}

// spanByName returns the first span called name.
func spanByName(spans []span, name string) span {
	for _, s := range spans {
		if s.Name == name {
			return s
		}
	}
	return span{}
}

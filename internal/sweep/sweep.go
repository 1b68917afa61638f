package sweep

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"picpredict"
	"picpredict/internal/core"
	"picpredict/internal/obs"
	"picpredict/internal/rebalance"
)

// maxConfigs bounds one sweep's configuration count — big enough for the
// "thousands of configurations" the engine exists for, small enough that a
// hostile grid cannot allocate without bound.
const maxConfigs = 8192

// Grid is the configuration space a sweep enumerates: the cross product of
// its five axes, minus the invalid (rebalance ≠ none, mapping ≠ element)
// combinations — rebalance policies re-cut the element decomposition, which
// only exists under element mapping. Empty axes default to the paper's
// baselines (bin mapping, Quartz, the synthetic model, no rebalancing).
type Grid struct {
	Ranks    []int
	Mappings []picpredict.MappingKind
	Machines []string
	Kinds    []picpredict.ModelKind
	// Rebalances lists dynamic load-balancing policy specs
	// (rebalance.ParseSpec syntax); "" and "none" both mean the static
	// decomposition and normalize to "".
	Rebalances []string
}

// normalize validates the grid and fills defaulted axes, deduplicating each
// axis preserving first occurrence. Every error wraps ErrSpec.
func (g Grid) normalize() (Grid, error) {
	if len(g.Ranks) == 0 {
		return Grid{}, fmt.Errorf("%w: grid needs at least one rank count", ErrSpec)
	}
	ranks := make([]int, 0, len(g.Ranks))
	seenR := make(map[int]bool)
	for _, r := range g.Ranks {
		if r <= 0 {
			return Grid{}, fmt.Errorf("%w: rank count %d is not positive", ErrSpec, r)
		}
		if r > core.MaxRanks {
			return Grid{}, fmt.Errorf("%w: rank count %d exceeds the %d limit", ErrSpec, r, core.MaxRanks)
		}
		if !seenR[r] {
			seenR[r] = true
			ranks = append(ranks, r)
		}
	}
	g.Ranks = ranks

	if len(g.Mappings) == 0 {
		g.Mappings = []picpredict.MappingKind{picpredict.MappingBin}
	}
	maps := make([]picpredict.MappingKind, 0, len(g.Mappings))
	seenM := make(map[picpredict.MappingKind]bool)
	for _, m := range g.Mappings {
		mk, err := picpredict.ParseMappingKind(string(m))
		if err != nil {
			return Grid{}, fmt.Errorf("%w: %v", ErrSpec, err)
		}
		if !seenM[mk] {
			seenM[mk] = true
			maps = append(maps, mk)
		}
	}
	g.Mappings = maps

	if len(g.Machines) == 0 {
		g.Machines = []string{"quartz"}
	}
	machines := make([]string, 0, len(g.Machines))
	seenMach := make(map[string]bool)
	for _, name := range g.Machines {
		if _, err := picpredict.MachineByName(name); err != nil {
			return Grid{}, fmt.Errorf("%w: %v", ErrSpec, err)
		}
		if !seenMach[name] {
			seenMach[name] = true
			machines = append(machines, name)
		}
	}
	g.Machines = machines

	if len(g.Kinds) == 0 {
		g.Kinds = []picpredict.ModelKind{picpredict.ModelSynthetic}
	}
	kinds := make([]picpredict.ModelKind, 0, len(g.Kinds))
	seenK := make(map[picpredict.ModelKind]bool)
	for _, k := range g.Kinds {
		kk, err := picpredict.ParseModelKind(string(k))
		if err != nil {
			return Grid{}, fmt.Errorf("%w: %v", ErrSpec, err)
		}
		if !seenK[kk] {
			seenK[kk] = true
			kinds = append(kinds, kk)
		}
	}
	g.Kinds = kinds

	if len(g.Rebalances) == 0 {
		g.Rebalances = []string{""}
	}
	rebals := make([]string, 0, len(g.Rebalances))
	seenReb := make(map[string]bool)
	hasDynamic := false
	for _, s := range g.Rebalances {
		spec, err := rebalance.ParseSpec(s)
		if err != nil {
			return Grid{}, fmt.Errorf("%w: %v", ErrSpec, err)
		}
		// "" is the canonical none so Config JSON omits the field and the
		// pre-rebalance document shapes are preserved byte for byte.
		canon := ""
		if !spec.None() {
			canon = spec.String()
			hasDynamic = true
		}
		if !seenReb[canon] {
			seenReb[canon] = true
			rebals = append(rebals, canon)
		}
	}
	g.Rebalances = rebals
	if hasDynamic && !seenM[picpredict.MappingElement] {
		return Grid{}, fmt.Errorf("%w: rebalance policies require the element mapping on the mapping axis", ErrSpec)
	}

	if n := g.configCount(); n > maxConfigs {
		return Grid{}, fmt.Errorf("%w: grid enumerates %d configurations (limit %d)", ErrSpec, n, maxConfigs)
	}
	return g, nil
}

// configCount counts the valid grid points: the five-axis cross product
// minus the (rebalance ≠ none, mapping ≠ element) combinations.
func (g Grid) configCount() int {
	pairs := 0
	for _, m := range g.Mappings {
		for _, reb := range g.Rebalances {
			if reb != "" && m != picpredict.MappingElement {
				continue
			}
			pairs++
		}
	}
	return len(g.Ranks) * pairs * len(g.Machines) * len(g.Kinds)
}

// Config identifies one grid point.
type Config struct {
	Ranks   int                    `json:"ranks"`
	Mapping picpredict.MappingKind `json:"mapping"`
	Machine string                 `json:"machine"`
	Kind    picpredict.ModelKind   `json:"model_kind"`
	// Rebalance is the canonical dynamic load-balancing policy spec; ""
	// (static decomposition) is omitted from JSON so pre-rebalance sweep
	// documents keep their exact shape.
	Rebalance string `json:"rebalance,omitempty"`
}

// Point is one evaluated configuration: the predicted execution profile
// plus the ranking-relevant derived figures.
type Point struct {
	Config
	// TotalSec is the predicted application wall time.
	TotalSec float64 `json:"total_sec"`
	// ComputeSec and CommSec split the critical path.
	ComputeSec float64 `json:"compute_sec"`
	CommSec    float64 `json:"comm_sec"`
	// MeanUtilization is the run-average busy fraction.
	MeanUtilization float64 `json:"mean_utilization"`
	// PeakParticles is the workload's max particles-per-rank.
	PeakParticles int64 `json:"peak_particles"`
	// CostRankSec is Ranks × TotalSec — the allocation the run would bill
	// (rank-seconds), the sweep's cost axis.
	CostRankSec float64 `json:"cost_rank_sec"`
	// MigrationSec is the run total of priced rebalance state transfers;
	// 0 (omitted) for static configurations.
	MigrationSec float64 `json:"migration_sec,omitempty"`
}

// CurvePoint is one rank count on a strong-scaling curve.
type CurvePoint struct {
	Ranks    int     `json:"ranks"`
	TotalSec float64 `json:"total_sec"`
	// Speedup is T(minRanks)/T(R) within the curve; Efficiency is
	// Speedup × minRanks / R.
	Speedup    float64 `json:"speedup"`
	Efficiency float64 `json:"efficiency"`
}

// Curve is the strong-scaling series of one (mapping, rebalance, machine,
// kind) family across the swept rank counts.
type Curve struct {
	Mapping   picpredict.MappingKind `json:"mapping"`
	Rebalance string                 `json:"rebalance,omitempty"`
	Machine   string                 `json:"machine"`
	Kind      picpredict.ModelKind   `json:"model_kind"`
	Points    []CurvePoint           `json:"points"`
}

// Result is a completed sweep: the ranked frontier plus its headline picks.
type Result struct {
	// Configs is the number of configurations evaluated; SharedBuilds is
	// how many workload builds they shared (one per distinct
	// (ranks, mapping) pair).
	Configs      int `json:"configs"`
	SharedBuilds int `json:"shared_builds"`
	// Frontier is every evaluated point ranked fastest-first (truncated to
	// Options.Top when set).
	Frontier []Point `json:"frontier"`
	// Fastest is Frontier[0]: the minimum predicted wall time.
	Fastest Point `json:"fastest"`
	// Knee is the cost/performance compromise: the point minimising
	// TotalSec/minTotal + CostWeight × CostRankSec/minCost.
	Knee Point `json:"knee"`
	// KneeScore is the knee's value of that objective.
	KneeScore float64 `json:"knee_score"`
	// Curves are the per-family strong-scaling series, sorted by
	// (mapping, machine, kind).
	Curves []Curve `json:"curves"`
}

// ModelsFunc resolves one trained model set per kind. The engine calls it
// once per distinct kind in the grid — the serving layer backs it with the
// model registry (so a sweep warms the point-predict cache), the CLI with
// TrainModelsKind.
type ModelsFunc func(ctx context.Context, kind picpredict.ModelKind) (picpredict.Models, error)

// WorkloadFunc resolves one workload build. The serving layer backs it
// with its workload memo, so a sweep's builds are shared with later point
// predicts and repeated sweeps.
type WorkloadFunc func(ctx context.Context, opts picpredict.WorkloadOptions) (*picpredict.Workload, error)

// Options tunes one sweep run.
type Options struct {
	// Filter, RelaxedBins, and MidpointSplit configure the Dynamic
	// Workload Generator exactly as in picpredict.WorkloadOptions; they
	// are shared by every configuration (they are not sweep axes).
	Filter        float64
	RelaxedBins   bool
	MidpointSplit bool
	// BuildWorkers is each workload generator's internal fill parallelism
	// (picpredict.WorkloadOptions.Workers); Workers is the sweep's own
	// fan-out width across builds and evaluations (default 4). Results are
	// bit-identical for any value of either.
	BuildWorkers int
	Workers      int
	// TotalElements, GridN, and FilterElements configure the Simulation
	// Platform as in picpredict.QueryOptions (TotalElements and GridN are
	// required).
	TotalElements  int
	GridN          float64
	FilterElements float64
	// CostWeight sets how much the knee values cheap allocations relative
	// to fast ones (default 1; 0 degenerates to the fastest point).
	CostWeight float64
	// Top truncates the returned frontier (0 keeps every point). Fastest,
	// Knee, and Curves always consider all points.
	Top int
	// Workloads resolves each shared build; nil generates every build
	// directly from the trace.
	Workloads WorkloadFunc
	// Obs (nil-safe) receives the sweep.* phase timers and counters.
	Obs *obs.Registry
	// Stages additionally emits obs stage marks (sweep-enumerate,
	// sweep-build, sweep-evaluate, sweep-rank) that partition the sweep's
	// wall time in the run manifest. Leave off when several sweeps may run
	// concurrently — stage marks are process-wide sequential.
	Stages bool
}

// buildKey identifies one shareable workload build. A rebalance policy
// changes the generated workload (ownership moves mid-trace), so it is part
// of the key — only configurations differing in machine or model kind share
// a build.
type buildKey struct {
	ranks     int
	mapping   picpredict.MappingKind
	rebalance string
}

// Run prices every configuration of grid against tr and returns the ranked
// frontier. Workload builds and model training are shared across
// configurations; evaluations fan out over a bounded worker pool. The
// result is bit-identical for any Workers/BuildWorkers value and for any
// enumeration order of the grid axes (ties rank by config fields).
// Cancelling ctx aborts the sweep with the context's error.
func Run(ctx context.Context, tr *picpredict.Trace, grid Grid, opts Options, models ModelsFunc) (*Result, error) {
	if tr == nil {
		return nil, fmt.Errorf("%w: sweep needs a trace", ErrSpec)
	}
	if models == nil {
		return nil, fmt.Errorf("%w: sweep needs a models resolver", ErrSpec)
	}
	if opts.Workers < 1 {
		opts.Workers = 4
	}
	if opts.CostWeight == 0 {
		opts.CostWeight = 1
	}
	reg := opts.Obs
	stage := func(name string) {
		if opts.Stages {
			reg.StageDone(name)
		}
	}

	// Enumerate: expand the grid into the config list and the shared
	// artefact sets it factors into.
	stopEnum := reg.Timer(obs.SweepEnumerateNs).Start()
	g, err := grid.normalize()
	if err != nil {
		return nil, err
	}
	configs := make([]Config, 0, g.configCount())
	builds := make([]buildKey, 0, len(g.Ranks)*len(g.Mappings)*len(g.Rebalances))
	for _, r := range g.Ranks {
		for _, m := range g.Mappings {
			for _, reb := range g.Rebalances {
				if reb != "" && m != picpredict.MappingElement {
					continue // rebalancing only exists under element mapping
				}
				builds = append(builds, buildKey{ranks: r, mapping: m, rebalance: reb})
				for _, mach := range g.Machines {
					for _, k := range g.Kinds {
						configs = append(configs, Config{Ranks: r, Mapping: m, Rebalance: reb, Machine: mach, Kind: k})
					}
				}
			}
		}
	}
	machines := make(map[string]*picpredict.MachineSpec, len(g.Machines))
	for _, name := range g.Machines {
		m, err := picpredict.MachineByName(name)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrSpec, err) // unreachable post-normalize
		}
		machines[name] = &m
	}
	stopEnum()
	stage("sweep-enumerate")

	// Build-shared: one model set per kind (sequential — training memoises
	// through the caller's registry), one workload per (ranks, mapping)
	// pair (fanned out).
	stopBuild := reg.Timer(obs.SweepBuildNs).Start()
	modelByKind := make(map[picpredict.ModelKind]picpredict.Models, len(g.Kinds))
	for _, k := range g.Kinds {
		m, err := models(ctx, k)
		if err != nil {
			return nil, fmt.Errorf("sweep: models for kind %q: %w", k, err)
		}
		modelByKind[k] = m
	}
	build := opts.Workloads
	if build == nil {
		build = tr.GenerateWorkloadContext
	}
	workloads := make([]*picpredict.Workload, len(builds))
	err = runPool(ctx, opts.Workers, len(builds), func(ctx context.Context, i int) error {
		wl, err := build(ctx, picpredict.WorkloadOptions{
			Ranks:         builds[i].ranks,
			Mapping:       builds[i].mapping,
			Rebalance:     builds[i].rebalance,
			FilterRadius:  opts.Filter,
			RelaxedBins:   opts.RelaxedBins,
			MidpointSplit: opts.MidpointSplit,
			Workers:       opts.BuildWorkers,
		})
		if err != nil {
			return fmt.Errorf("sweep: workload %d×%s: %w", builds[i].ranks, builds[i].mapping, err)
		}
		workloads[i] = wl
		return nil
	})
	if err != nil {
		return nil, err
	}
	workloadByKey := make(map[buildKey]*picpredict.Workload, len(builds))
	for i, b := range builds {
		workloadByKey[b] = workloads[i]
	}
	reg.Counter(obs.SweepSharedBuilds).Add(int64(len(builds)))
	stopBuild()
	stage("sweep-build")

	// Evaluate: one BSP replay per configuration over the shared
	// artefacts, collected into a preallocated per-index slice so the
	// outcome is independent of worker scheduling.
	stopEval := reg.Timer(obs.SweepEvaluateNs).Start()
	points := make([]Point, len(configs))
	err = runPool(ctx, opts.Workers, len(configs), func(ctx context.Context, i int) error {
		c := configs[i]
		wl := workloadByKey[buildKey{ranks: c.Ranks, mapping: c.Mapping, rebalance: c.Rebalance}]
		pred, err := picpredict.PredictWorkload(modelByKind[c.Kind], wl, picpredict.QueryOptions{
			TotalElements:  opts.TotalElements,
			GridN:          opts.GridN,
			FilterElements: opts.FilterElements,
			Machine:        machines[c.Machine],
		})
		if err != nil {
			return fmt.Errorf("sweep: config %+v: %w", c, err)
		}
		points[i] = pointOf(c, wl, pred)
		return nil
	})
	if err != nil {
		return nil, err
	}
	reg.Counter(obs.SweepConfigs).Add(int64(len(configs)))
	stopEval()
	stage("sweep-evaluate")

	// Rank: total-order sort (ties broken on config fields, so the
	// frontier is a pure function of the grid *set*), knee selection, and
	// strong-scaling curves.
	stopRank := reg.Timer(obs.SweepRankNs).Start()
	res := rank(points, len(builds), opts)
	stopRank()
	stage("sweep-rank")
	return res, nil
}

// pointOf derives one frontier point from an evaluated configuration.
func pointOf(c Config, wl *picpredict.Workload, pred *picpredict.Prediction) Point {
	var comp, comm float64
	for k := range pred.Compute {
		comp += pred.Compute[k]
		comm += pred.Comm[k]
	}
	return Point{
		Config:          c,
		TotalSec:        pred.Total,
		ComputeSec:      comp,
		CommSec:         comm,
		MeanUtilization: pred.MeanUtilization(),
		PeakParticles:   wl.Peak(),
		CostRankSec:     float64(c.Ranks) * pred.Total,
		MigrationSec:    pred.MigrationSec(),
	}
}

// less is the frontier's total order: faster first, ties broken on the
// config identity so equal-time points still rank deterministically.
func less(a, b *Point) bool {
	if a.TotalSec < b.TotalSec {
		return true
	}
	if b.TotalSec < a.TotalSec {
		return false
	}
	if a.Ranks != b.Ranks {
		return a.Ranks < b.Ranks
	}
	if a.Mapping != b.Mapping {
		return a.Mapping < b.Mapping
	}
	if a.Rebalance != b.Rebalance {
		return a.Rebalance < b.Rebalance
	}
	if a.Machine != b.Machine {
		return a.Machine < b.Machine
	}
	return a.Kind < b.Kind
}

// rank turns the evaluated points into the sorted, summarised Result.
func rank(points []Point, sharedBuilds int, opts Options) *Result {
	sort.Slice(points, func(i, j int) bool { return less(&points[i], &points[j]) })

	// Knee objective: normalise both axes by the sweep's own minima so the
	// weight is unitless. Minima are over all points — permutation
	// invariant by construction.
	minTotal, minCost := points[0].TotalSec, points[0].CostRankSec
	for _, p := range points[1:] {
		if p.CostRankSec < minCost {
			minCost = p.CostRankSec
		}
	}
	kneeIdx, kneeScore := 0, 0.0
	for i := range points {
		score := kneeObjective(&points[i], minTotal, minCost, opts.CostWeight)
		// Strict < keeps the first (fastest-ranked) point on ties.
		if i == 0 || score < kneeScore {
			kneeIdx, kneeScore = i, score
		}
	}

	res := &Result{
		Configs:      len(points),
		SharedBuilds: sharedBuilds,
		Fastest:      points[0],
		Knee:         points[kneeIdx],
		KneeScore:    kneeScore,
		Curves:       curvesOf(points),
	}
	res.Frontier = points
	if opts.Top > 0 && opts.Top < len(points) {
		res.Frontier = points[:opts.Top]
	}
	return res
}

// kneeObjective scores one point for knee selection (lower is better).
func kneeObjective(p *Point, minTotal, minCost, costWeight float64) float64 {
	score := 0.0
	if minTotal > 0 {
		score += p.TotalSec / minTotal
	}
	if minCost > 0 {
		score += costWeight * p.CostRankSec / minCost
	}
	return score
}

// curvesOf groups the points into per-(mapping, rebalance, machine, kind)
// strong-scaling series.
func curvesOf(points []Point) []Curve {
	type family struct {
		mapping   picpredict.MappingKind
		rebalance string
		machine   string
		kind      picpredict.ModelKind
	}
	byFamily := make(map[family][]Point)
	for _, p := range points {
		f := family{p.Mapping, p.Rebalance, p.Machine, p.Kind}
		byFamily[f] = append(byFamily[f], p)
	}
	families := make([]family, 0, len(byFamily))
	for f := range byFamily {
		families = append(families, f)
	}
	sort.Slice(families, func(i, j int) bool {
		a, b := families[i], families[j]
		if a.mapping != b.mapping {
			return a.mapping < b.mapping
		}
		if a.rebalance != b.rebalance {
			return a.rebalance < b.rebalance
		}
		if a.machine != b.machine {
			return a.machine < b.machine
		}
		return a.kind < b.kind
	})
	curves := make([]Curve, 0, len(families))
	for _, f := range families {
		pts := byFamily[f]
		sort.Slice(pts, func(i, j int) bool { return pts[i].Ranks < pts[j].Ranks })
		base := pts[0] // min ranks: the strong-scaling reference
		c := Curve{Mapping: f.mapping, Rebalance: f.rebalance, Machine: f.machine, Kind: f.kind}
		for _, p := range pts {
			cp := CurvePoint{Ranks: p.Ranks, TotalSec: p.TotalSec}
			if p.TotalSec > 0 {
				cp.Speedup = base.TotalSec / p.TotalSec
				cp.Efficiency = cp.Speedup * float64(base.Ranks) / float64(p.Ranks)
			}
			c.Points = append(c.Points, cp)
		}
		curves = append(curves, c)
	}
	return curves
}

// runPool runs fn(ctx, i) for every i in [0, n) over a bounded worker pool,
// stopping new work on the first error or context cancellation. The
// reported error is deterministic: the parent context's error wins, then
// the lowest-index failure.
func runPool(ctx context.Context, workers, n int, fn func(ctx context.Context, i int) error) error {
	if n == 0 {
		return ctx.Err()
	}
	if workers > n {
		workers = n
	}
	poolCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	idx := make(chan int)
	errs := make([]error, n)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range idx {
				if poolCtx.Err() != nil {
					errs[i] = poolCtx.Err()
					continue
				}
				if err := fn(poolCtx, i); err != nil {
					errs[i] = err
					cancel()
				}
			}
		}()
	}
feed:
	for i := 0; i < n; i++ {
		select {
		case idx <- i:
		case <-poolCtx.Done():
			break feed
		}
	}
	close(idx)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return err
	}
	// Lowest-index non-cancellation error: the same failure surfaces
	// whatever the worker interleaving.
	for _, err := range errs {
		if err != nil && err != context.Canceled {
			return err
		}
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"

	"picpredict"
	"picpredict/internal/sweep"
)

// OptimizeRequest is the /v1/optimize body: a configuration grid to price
// against one trace artefact. Ranks is a grid spec ("8,64,512-8352:x2");
// the other axes default to the paper baselines. Every model the sweep
// trains lands in the registry, and every workload it builds in the
// workload memo, so an optimize call warms the caches the point
// /v1/predict path answers from.
type OptimizeRequest struct {
	// Scenario names the trace artefact to sweep over (default: the
	// server's first-loaded trace).
	Scenario string `json:"scenario,omitempty"`

	// Ranks is the rank-axis grid spec (required); Mappings, Machines,
	// Kinds, and Rebalances are the other axes (defaults bin / quartz /
	// synthetic / none). Non-none rebalance entries require "element" on the
	// mapping axis and price only element-mapping configurations.
	Ranks      string   `json:"ranks"`
	Mappings   []string `json:"mappings,omitempty"`
	Machines   []string `json:"machines,omitempty"`
	Kinds      []string `json:"model_kinds,omitempty"`
	Rebalances []string `json:"rebalances,omitempty"`

	// Model carries the training knobs shared by every kind (Fast, Seed,
	// Noise). Setting Model.Kind is shorthand for a one-kind Kinds axis;
	// setting both is rejected.
	Model ModelParams `json:"model,omitempty"`

	// Filter, RelaxedBins, and MidpointSplit configure workload generation
	// exactly as in PredictRequest — shared by every configuration.
	Filter        float64 `json:"filter,omitempty"`
	RelaxedBins   bool    `json:"relaxed_bins,omitempty"`
	MidpointSplit bool    `json:"midpoint_split,omitempty"`

	// TotalElements, N, and FilterElements override the server's platform
	// defaults, as in PredictRequest.
	TotalElements  int     `json:"total_elements,omitempty"`
	N              float64 `json:"n,omitempty"`
	FilterElements float64 `json:"filter_elements,omitempty"`

	// CostWeight tunes the knee objective (default 1); Top truncates the
	// returned frontier (default 32, 0 takes the default).
	CostWeight float64 `json:"cost_weight,omitempty"`
	Top        int     `json:"top,omitempty"`

	// cacheOnly (from CacheOnlyHeader): resolve models from resident
	// registry entries only, declining cold kinds with 409 — a hedged
	// optimize must never trigger a training run.
	cacheOnly bool
}

// defaultOptimizeTop bounds the frontier an optimize response carries when
// the request does not say — a sweep can price thousands of points, but a
// client usually reads the first page.
const defaultOptimizeTop = 32

// OptimizeModel records one model set the sweep resolved: its registry key
// and whether the lookup hit the cache.
type OptimizeModel struct {
	Kind     string   `json:"kind"`
	ModelKey ModelKey `json:"model_key"`
	Cache    string   `json:"cache"` // "hit" or "miss"
}

// OptimizeResponse is the /v1/optimize response body.
type OptimizeResponse struct {
	Scenario string          `json:"scenario"`
	Models   []OptimizeModel `json:"models"`
	Sweep    *sweep.Result   `json:"sweep"`
}

func (s *Server) handleOptimize(w http.ResponseWriter, r *http.Request) {
	s.runAdmitted(w, r, func(ctx context.Context) (any, int, error) {
		var req OptimizeRequest
		if err := decodeBody(w, r, &req); err != nil {
			return nil, http.StatusBadRequest, err
		}
		req.cacheOnly = r.Header.Get(CacheOnlyHeader) != ""
		return s.optimize(ctx, &req)
	})
}

// optimize resolves the grid against a loaded trace and runs the sweep
// engine over the model registry.
func (s *Server) optimize(ctx context.Context, req *OptimizeRequest) (*OptimizeResponse, int, error) {
	name := req.Scenario
	if name == "" {
		name = s.defaultTrace
	}
	art := s.traces[name]
	if art == nil {
		return nil, http.StatusNotFound, fmt.Errorf("unknown scenario %q (loaded: %v)", name, s.traceNames())
	}
	if req.Ranks == "" {
		return nil, http.StatusBadRequest, errors.New(`ranks is required (a grid spec, e.g. "8,64,512-8352:x2")`)
	}
	ranks, err := sweep.ParseRanks(req.Ranks)
	if err != nil {
		return nil, http.StatusBadRequest, err
	}
	if req.Filter < 0 {
		return nil, http.StatusBadRequest, fmt.Errorf("filter radius %g is negative", req.Filter)
	}
	kinds := req.Kinds
	if req.Model.Kind != "" {
		if len(kinds) != 0 {
			return nil, http.StatusBadRequest, errors.New("model.kind and model_kinds are exclusive; put every kind in model_kinds")
		}
		kinds = []string{req.Model.Kind}
	}
	grid := sweep.Grid{Ranks: ranks}
	for _, m := range req.Mappings {
		grid.Mappings = append(grid.Mappings, picpredict.MappingKind(m))
	}
	grid.Machines = req.Machines
	for _, k := range kinds {
		grid.Kinds = append(grid.Kinds, picpredict.ModelKind(k))
	}
	grid.Rebalances = req.Rebalances
	for _, m := range grid.Mappings {
		if m != picpredict.MappingBin && m != "" {
			if _, _, ok := art.tr.Mesh(); !ok {
				return nil, http.StatusBadRequest, fmt.Errorf("mapping %q needs the application element grid; start picserve with -elements ex,ey,ez", m)
			}
			break
		}
	}

	opts := sweep.Options{
		Filter:         req.Filter,
		RelaxedBins:    req.RelaxedBins,
		MidpointSplit:  req.MidpointSplit,
		Workers:        s.cfg.SweepWorkers,
		TotalElements:  s.cfg.TotalElements,
		GridN:          s.cfg.GridN,
		FilterElements: s.cfg.FilterElements,
		CostWeight:     req.CostWeight,
		Top:            req.Top,
		Obs:            s.reg,
		Workloads: func(ctx context.Context, o picpredict.WorkloadOptions) (*picpredict.Workload, error) {
			wl, _, err := s.workload(ctx, newWorkloadKey(art, o))
			return wl, err
		},
	}
	if req.TotalElements > 0 {
		opts.TotalElements = req.TotalElements
	}
	if req.N > 0 {
		opts.GridN = req.N
	}
	if req.FilterElements > 0 {
		opts.FilterElements = req.FilterElements
	}
	if opts.Top == 0 {
		opts.Top = defaultOptimizeTop
	}

	// The engine resolves one model set per distinct kind, sequentially,
	// through the registry — every sweep therefore leaves its models
	// resident for later point predicts (and a cacheOnly sweep can only
	// use what is already there).
	trainOpts := picpredict.TrainOptions{Fast: req.Model.Fast, Seed: req.Model.Seed, Noise: req.Model.Noise}
	var resolved []OptimizeModel
	modelsFn := func(ctx context.Context, kind picpredict.ModelKind) (picpredict.Models, error) {
		m, hit, err := s.models(ctx, art.crc, kind, trainOpts, req.cacheOnly)
		if err != nil {
			return m, err
		}
		resolved = append(resolved, OptimizeModel{
			Kind:     string(kind),
			ModelKey: Fingerprint(art.crc, kind, trainOpts),
			Cache:    cacheLabel(hit),
		})
		return m, nil
	}

	res, err := sweep.Run(ctx, art.tr, grid, opts, modelsFn)
	if err != nil {
		switch {
		case errors.Is(err, sweep.ErrSpec):
			return nil, http.StatusBadRequest, err
		case errors.Is(err, errColdModel):
			return nil, 0, err // status picked by the shared cold-decline branch
		default:
			return nil, http.StatusInternalServerError, err
		}
	}
	return &OptimizeResponse{Scenario: name, Models: resolved, Sweep: res}, http.StatusOK, nil
}

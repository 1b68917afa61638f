package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"

	"picpredict"
	"picpredict/internal/cli"
	"picpredict/internal/core"
	"picpredict/internal/obs"
)

// PredictRequest is the /v1/predict body. Ranks is the only required
// field; everything else defaults from the server configuration.
type PredictRequest struct {
	// Scenario names the trace artefact to predict against (default: the
	// server's first-loaded trace). Workload instead names a pre-generated
	// workload artefact — its ranks/mapping are baked in, so Ranks,
	// Mapping, and Filter are rejected alongside it.
	Scenario string `json:"scenario,omitempty"`
	Workload string `json:"workload,omitempty"`

	// Ranks lists the processor counts to predict (§II: one trace answers
	// every system size).
	Ranks []int `json:"ranks,omitempty"`
	// Mapping selects the mapper (element, bin, hilbert, weighted,
	// ohhelp; default bin); Filter is the projection filter radius
	// (default: 0, real particles only); RelaxedBins and MidpointSplit
	// tune bin mapping.
	Mapping       string  `json:"mapping,omitempty"`
	Filter        float64 `json:"filter,omitempty"`
	RelaxedBins   bool    `json:"relaxed_bins,omitempty"`
	MidpointSplit bool    `json:"midpoint_split,omitempty"`
	// Rebalance is a dynamic load-balancing policy spec ("periodic:K",
	// "threshold:F", "diffusion:F[/R]"; default none). Like Mapping it is a
	// per-query workload parameter — deliberately NOT part of the model key.
	// Requires element mapping; rejected on workload replay (baked in).
	Rebalance string `json:"rebalance,omitempty"`

	// Model selects and configures the Model Generator variant.
	Model ModelParams `json:"model,omitempty"`

	// Machine, TotalElements, N, and FilterElements override the server's
	// platform defaults.
	Machine        string  `json:"machine,omitempty"`
	TotalElements  int     `json:"total_elements,omitempty"`
	N              float64 `json:"n,omitempty"`
	FilterElements float64 `json:"filter_elements,omitempty"`

	// cacheOnly (set from the CacheOnlyHeader, never the JSON body) answers
	// only from resident models: a cold key declines with 409 instead of
	// training. Hedged gate attempts use it so a tail-latency hedge can
	// never trigger a multi-second training run on a replica.
	cacheOnly bool
}

// CacheOnlyHeader marks a predict request that must not start a training
// run. The gate sets it on hedged attempts; a shard without the model
// resident answers 409 immediately.
const CacheOnlyHeader = "X-Picpredict-Cache-Only"

// errColdModel is the sentinel for a cache-only request that missed.
var errColdModel = errors.New("model not resident (cache-only request declined)")

// ModelParams is the model-kind block of a predict request.
type ModelParams struct {
	// Kind is synthetic (default), wallclock, or app.
	Kind string `json:"kind,omitempty"`
	// Fast shrinks the symbolic-regression search; Seed and Noise as in
	// picpredict.TrainOptions.
	Fast  bool    `json:"fast,omitempty"`
	Seed  int64   `json:"seed,omitempty"`
	Noise float64 `json:"noise,omitempty"`
}

// PredictResult is one rank count's prediction.
type PredictResult struct {
	Ranks           int     `json:"ranks"`
	TotalSec        float64 `json:"total_sec"`
	ComputeSec      float64 `json:"compute_sec"`
	CommSec         float64 `json:"comm_sec"`
	MeanUtilization float64 `json:"mean_utilization"`
	PeakParticles   int64   `json:"peak_particles"`
	// MigrationSec is the priced rebalance state-transfer total; omitted
	// (0) for static mappings. RebalanceEpochs counts the intervals that
	// actually moved ownership.
	MigrationSec    float64 `json:"migration_sec,omitempty"`
	RebalanceEpochs int     `json:"rebalance_epochs,omitempty"`
	// WorkloadCache reports whether a trace query's workload came from the
	// workload memo ("hit") or was built for it ("miss"); omitted on
	// workload replays, which build nothing.
	WorkloadCache string `json:"workload_cache,omitempty"`
}

// PredictResponse is the /v1/predict response body.
type PredictResponse struct {
	Scenario string          `json:"scenario"`
	ModelKey ModelKey        `json:"model_key"`
	Cache    string          `json:"cache"` // "hit" or "miss"
	Results  []PredictResult `json:"results"`
}

// errorBody is every non-200 JSON payload. RequestID carries the
// correlation ID the middleware resolved, so a gate-side failure log and a
// shard-side error body name the same request.
type errorBody struct {
	Error     string `json:"error"`
	RequestID string `json:"request_id,omitempty"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) // client gone mid-write; nothing useful to do
}

// writeError emits the structured error body, tagged with r's request ID.
func writeError(w http.ResponseWriter, r *http.Request, status int, format string, args ...any) {
	writeJSON(w, status, errorBody{
		Error:     fmt.Sprintf(format, args...),
		RequestID: RequestIDFrom(r.Context()),
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok", "instance": s.instance})
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	switch {
	case s.draining.Load():
		w.Header().Set("Retry-After", "1")
		writeError(w, r, http.StatusServiceUnavailable, "draining")
	case !s.ready.Load():
		w.Header().Set("Retry-After", "1")
		writeError(w, r, http.StatusServiceUnavailable, "not ready")
	default:
		writeJSON(w, http.StatusOK, map[string]any{
			"status":   "ok",
			"instance": s.instance,
			"traces":   s.traceNames(),
			"models":   s.registry.Len(),
			"inflight": s.inflight.Load(),
		})
	}
}

func (s *Server) traceNames() []string {
	names := make([]string, 0, len(s.traces))
	for n := range s.traces {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func (s *Server) handleModels(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"capacity": s.cfg.ModelCapacity,
		"models":   s.registry.Entries(),
	})
}

// handlePredict is the serving hot path: admission control, per-request
// deadline, model registry lookup (training on miss), then one workload
// generation + BSP replay per requested rank count.
func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	s.runAdmitted(w, r, func(ctx context.Context) (any, int, error) {
		var req PredictRequest
		if err := decodeBody(w, r, &req); err != nil {
			return nil, http.StatusBadRequest, err
		}
		req.cacheOnly = r.Header.Get(CacheOnlyHeader) != ""
		return s.predict(ctx, &req)
	})
}

// decodeBody decodes one JSON request body of at most 1 MiB into v — the
// decode step /v1/predict and /v1/optimize share.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(v); err != nil {
		return fmt.Errorf("bad request body: %v", err)
	}
	return nil
}

// runAdmitted funnels one request through the admission pipeline shared by
// /v1/predict and /v1/optimize: shed at saturation (429 + Retry-After),
// bound end to end by the request timeout, wait queued for a worker slot,
// then map the execution error to its status family. fn both decodes and
// executes the request under the worker slot.
func (s *Server) runAdmitted(w http.ResponseWriter, r *http.Request, fn func(ctx context.Context) (any, int, error)) {
	if s.draining.Load() {
		w.Header().Set("Retry-After", "1")
		writeError(w, r, http.StatusServiceUnavailable, "draining")
		return
	}
	if !s.pool.tryAdmit() {
		s.reg.Counter(obs.ServeRejected).Inc()
		w.Header().Set("Retry-After", "1")
		writeError(w, r, http.StatusTooManyRequests,
			"saturated: %d executing and %d queued; retry shortly", s.cfg.Workers, s.cfg.Queue)
		return
	}
	defer s.pool.releaseAdmit()
	s.reg.Counter(obs.ServeRequests).Inc()
	s.reg.Histogram(obs.ServeQueueDepth).Observe(int64(s.pool.queued()))
	s.inflight.Add(1)
	defer s.inflight.Add(-1)
	stopLatency := s.reg.Timer(obs.ServeLatencyNs).Start()
	defer stopLatency()

	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()

	// Wait (queued) for a worker slot.
	if err := s.pool.acquireWork(ctx); err != nil {
		s.reg.Counter(obs.ServeTimeouts).Inc()
		writeError(w, r, http.StatusGatewayTimeout, "timed out waiting for a worker: %v", err)
		return
	}
	defer s.pool.releaseWork()

	resp, status, err := fn(ctx)
	if err != nil {
		switch {
		case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
			s.reg.Counter(obs.ServeTimeouts).Inc()
			writeError(w, r, http.StatusGatewayTimeout, "request timed out")
		case errors.Is(err, errColdModel):
			// Not a fault: the caller asked for cache-only and this shard
			// has not trained the model. Counted apart from serve.errors.
			s.reg.Counter(obs.ServeColdDeclines).Inc()
			writeError(w, r, http.StatusConflict, "%v", err)
		default:
			s.reg.Counter(obs.ServeErrors).Inc()
			writeError(w, r, status, "%v", err)
		}
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// predict resolves the request against loaded artefacts and the model
// registry. The returned status is used only when err is non-nil.
func (s *Server) predict(ctx context.Context, req *PredictRequest) (*PredictResponse, int, error) {
	kind, err := picpredict.ParseModelKind(req.Model.Kind)
	if err != nil {
		return nil, http.StatusBadRequest, err
	}
	var machine *picpredict.MachineSpec
	machineName := req.Machine
	if machineName == "" {
		machineName = s.cfg.Machine
	}
	m, err := picpredict.MachineByName(machineName)
	if err != nil {
		return nil, http.StatusBadRequest, err
	}
	machine = &m

	q := picpredict.QueryOptions{
		TotalElements:  s.cfg.TotalElements,
		GridN:          s.cfg.GridN,
		FilterElements: s.cfg.FilterElements,
		Machine:        machine,
		Obs:            s.reg,
	}
	if req.TotalElements > 0 {
		q.TotalElements = req.TotalElements
	}
	if req.N > 0 {
		q.GridN = req.N
	}
	if req.FilterElements > 0 {
		q.FilterElements = req.FilterElements
	}

	trainOpts := picpredict.TrainOptions{Fast: req.Model.Fast, Seed: req.Model.Seed, Noise: req.Model.Noise}

	if req.Workload != "" {
		return s.predictWorkload(ctx, req, kind, trainOpts, q)
	}
	tq, status, err := s.parseTraceQuery(req)
	if err != nil {
		return nil, status, err
	}
	return s.predictTrace(ctx, req, tq, kind, trainOpts, q)
}

// traceQuery is a validated /v1/predict trace query: the artefact, the rank
// counts, and the canonical workload options every rank count shares.
type traceQuery struct {
	art   *traceArtefact
	ranks []int
	opts  picpredict.WorkloadOptions // Ranks and Workers zero
}

// workloadKey identifies one workload-memo entry: the registered trace
// artefact (the registration itself, not its checksum string — a
// caller-supplied 32-bit CRC neither covers the mesh WithMesh attaches nor
// tells apart two traces registered under one checksum) and canonical
// generator options: Workers dropped (workloads are identical for any
// value) and the "none" rebalance folded into "".
type workloadKey struct {
	art  *traceArtefact
	opts picpredict.WorkloadOptions
}

// key is the workload-memo key of one of the query's rank counts.
func (tq traceQuery) key(ranks int) workloadKey {
	o := tq.opts
	o.Ranks = ranks
	return newWorkloadKey(tq.art, o)
}

func newWorkloadKey(art *traceArtefact, o picpredict.WorkloadOptions) workloadKey {
	o.Workers = 0
	if o.Rebalance == "none" {
		o.Rebalance = ""
	}
	return workloadKey{art: art, opts: o}
}

// parseTraceQuery validates a trace query before anything is resolved: the
// scenario exists (404 otherwise), and the rank counts, filter, mapping
// and rebalance policy are well formed and fit the trace (400 otherwise).
func (s *Server) parseTraceQuery(req *PredictRequest) (traceQuery, int, error) {
	name := req.Scenario
	if name == "" {
		name = s.defaultTrace
	}
	art := s.traces[name]
	if art == nil {
		return traceQuery{}, http.StatusNotFound, fmt.Errorf("unknown scenario %q (loaded: %v)", name, s.traceNames())
	}
	if len(req.Ranks) == 0 {
		return traceQuery{}, http.StatusBadRequest, errors.New("ranks is required (e.g. [1044, 2088])")
	}
	for _, r := range req.Ranks {
		if r <= 0 {
			return traceQuery{}, http.StatusBadRequest, fmt.Errorf("rank count %d is not positive", r)
		}
		if r > core.MaxRanks {
			return traceQuery{}, http.StatusBadRequest, fmt.Errorf("rank count %d exceeds the %d limit", r, core.MaxRanks)
		}
	}
	if req.Filter < 0 {
		return traceQuery{}, http.StatusBadRequest, fmt.Errorf("filter radius %g is negative", req.Filter)
	}
	mapping, err := picpredict.ParseMappingKind(req.Mapping)
	if err != nil {
		return traceQuery{}, http.StatusBadRequest, err
	}
	rebal, err := cli.ParseRebalance("rebalance", req.Rebalance)
	if err != nil {
		return traceQuery{}, http.StatusBadRequest, err
	}
	if rebal != "" && rebal != "none" && mapping != picpredict.MappingElement {
		return traceQuery{}, http.StatusBadRequest, fmt.Errorf("rebalance %q requires mapping \"element\", got %q", rebal, mapping)
	}
	if mapping != picpredict.MappingBin {
		if _, _, ok := art.tr.Mesh(); !ok {
			return traceQuery{}, http.StatusBadRequest, fmt.Errorf("mapping %q needs the application element grid; start picserve with -elements ex,ey,ez", mapping)
		}
	}
	return traceQuery{art: art, ranks: req.Ranks, opts: picpredict.WorkloadOptions{
		Mapping:       mapping,
		Rebalance:     rebal,
		FilterRadius:  req.Filter,
		RelaxedBins:   req.RelaxedBins,
		MidpointSplit: req.MidpointSplit,
	}}, http.StatusOK, nil
}

// predictTrace serves a validated trace query: one workload per rank count,
// resolved through the workload memo, then one BSP replay each.
func (s *Server) predictTrace(ctx context.Context, req *PredictRequest, tq traceQuery, kind picpredict.ModelKind, trainOpts picpredict.TrainOptions, q picpredict.QueryOptions) (*PredictResponse, int, error) {
	models, hit, err := s.models(ctx, tq.art.crc, kind, trainOpts, req.cacheOnly)
	if err != nil {
		return nil, http.StatusInternalServerError, err
	}

	resp := &PredictResponse{
		Scenario: tq.art.name,
		ModelKey: Fingerprint(tq.art.crc, kind, trainOpts),
		Cache:    cacheLabel(hit),
	}
	for _, ranks := range tq.ranks {
		if err := ctx.Err(); err != nil {
			return nil, http.StatusGatewayTimeout, err
		}
		wl, wlHit, err := s.workload(ctx, tq.key(ranks))
		if err != nil {
			return nil, http.StatusInternalServerError, err
		}
		pred, err := picpredict.PredictWorkload(models, wl, q)
		if err != nil {
			return nil, http.StatusInternalServerError, err
		}
		res := resultOf(wl, pred)
		res.WorkloadCache = cacheLabel(wlHit)
		resp.Results = append(resp.Results, res)
	}
	return resp, http.StatusOK, nil
}

// workload resolves one trace build through the workload memo. The build
// runs on its own goroutine under a context cancelled when the last request
// waiting on it leaves, instrumented into the server's registry.
func (s *Server) workload(ctx context.Context, key workloadKey) (*picpredict.Workload, bool, error) {
	return s.wlMemo.get(ctx, key, "", func(ctx context.Context) (*picpredict.Workload, error) {
		return key.art.tr.GenerateWorkloadContext(obs.With(ctx, s.reg), key.opts)
	})
}

// predictWorkload serves the replay path over a pre-generated workload.
func (s *Server) predictWorkload(ctx context.Context, req *PredictRequest, kind picpredict.ModelKind, trainOpts picpredict.TrainOptions, q picpredict.QueryOptions) (*PredictResponse, int, error) {
	if len(req.Ranks) != 0 || req.Mapping != "" || req.Filter != 0 || req.Rebalance != "" {
		return nil, http.StatusBadRequest, errors.New("workload replay: ranks/mapping/rebalance/filter are baked into the artefact; omit them")
	}
	art := s.workloads[req.Workload]
	if art == nil {
		return nil, http.StatusNotFound, fmt.Errorf("unknown workload %q", req.Workload)
	}
	models, hit, err := s.models(ctx, art.crc, kind, trainOpts, req.cacheOnly)
	if err != nil {
		return nil, http.StatusInternalServerError, err
	}
	if err := ctx.Err(); err != nil {
		return nil, http.StatusGatewayTimeout, err
	}
	pred, err := picpredict.PredictWorkload(models, art.wl, q)
	if err != nil {
		return nil, http.StatusInternalServerError, err
	}
	return &PredictResponse{
		Scenario: req.Workload,
		ModelKey: Fingerprint(art.crc, kind, trainOpts),
		Cache:    cacheLabel(hit),
		Results:  []PredictResult{resultOf(art.wl, pred)},
	}, http.StatusOK, nil
}

// models resolves one trained model set through the registry. cacheOnly
// answers from resident entries only, failing cold keys with errColdModel
// instead of training.
func (s *Server) models(ctx context.Context, crc string, kind picpredict.ModelKind, opts picpredict.TrainOptions, cacheOnly bool) (picpredict.Models, bool, error) {
	key := Fingerprint(crc, kind, opts)
	if cacheOnly {
		m, ok, err := s.registry.Peek(ctx, key)
		if err != nil {
			return m, ok, err
		}
		if !ok {
			return m, false, errColdModel
		}
		return m, true, nil
	}
	return s.registry.GetOrTrain(ctx, key, kind, func(trainCtx context.Context) (picpredict.Models, error) {
		return s.trainer(trainCtx, kind, opts)
	})
}

func cacheLabel(hit bool) string {
	if hit {
		return "hit"
	}
	return "miss"
}

func resultOf(wl *picpredict.Workload, pred *picpredict.Prediction) PredictResult {
	var comp, comm float64
	for k := range pred.Compute {
		comp += pred.Compute[k]
		comm += pred.Comm[k]
	}
	return PredictResult{
		Ranks:           pred.Ranks,
		TotalSec:        pred.Total,
		ComputeSec:      comp,
		CommSec:         comm,
		MeanUtilization: pred.MeanUtilization(),
		PeakParticles:   wl.Peak(),
		MigrationSec:    pred.MigrationSec(),
		RebalanceEpochs: wl.MigrationEpochs(),
	}
}

package serve

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"picpredict"
	"picpredict/internal/obs"
)

// Config sizes and defaults a Server. Zero values take the documented
// defaults at New time.
type Config struct {
	// Workers is the number of concurrent prediction executions
	// (default 4); Queue is how many admitted requests may wait behind
	// them (default 4×Workers). A request arriving with Workers executing
	// and Queue waiting is shed with 429 + Retry-After.
	Workers int
	Queue   int
	// RequestTimeout bounds one /v1/predict request end to end, queue
	// wait included (default 60s).
	RequestTimeout time.Duration
	// DrainTimeout bounds the graceful drain after shutdown begins
	// (default 30s); in-flight requests still running when it expires are
	// abandoned.
	DrainTimeout time.Duration
	// ModelCapacity bounds the model registry's LRU (default 8 trained
	// model sets).
	ModelCapacity int
	// SweepWorkers is each /v1/optimize sweep's internal fan-out width
	// (default 4). An optimize request still occupies exactly one admission
	// worker slot — SweepWorkers trades that slot's latency against CPU.
	SweepWorkers int

	// TotalElements, GridN, FilterElements, and Machine are the platform
	// defaults a request may omit (defaults 16384, 4, 1, quartz).
	TotalElements  int
	GridN          float64
	FilterElements float64
	Machine        string

	// Obs (nil-safe) receives the serving metrics named in
	// internal/obs/names.go.
	Obs *obs.Registry
}

func (c Config) withDefaults() Config {
	if c.Workers < 1 {
		c.Workers = 4
	}
	if c.Queue == 0 {
		c.Queue = 4 * c.Workers
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 60 * time.Second
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 30 * time.Second
	}
	if c.ModelCapacity < 1 {
		c.ModelCapacity = 8
	}
	if c.SweepWorkers < 1 {
		c.SweepWorkers = 4
	}
	if c.TotalElements <= 0 {
		c.TotalElements = 16384
	}
	if c.GridN <= 0 {
		c.GridN = 4
	}
	if c.FilterElements <= 0 {
		c.FilterElements = 1
	}
	if c.Machine == "" {
		c.Machine = "quartz"
	}
	return c
}

// traceArtefact is one loaded trace the server predicts against.
type traceArtefact struct {
	name string
	tr   *picpredict.Trace
	crc  string // content checksum, folded into model-registry keys
}

// workloadArtefact is one pre-generated workload (wlgen -save) the server
// replays directly, skipping workload generation.
type workloadArtefact struct {
	name string
	wl   *picpredict.Workload
	crc  string
}

// workloadMemoBytes is the workload memo's budget, charged per entry at
// the workload's resident bytes (8 B per dense computation cell, 16 B per
// sealed communication entry). One paper-scale rank count — R = 8352 over
// 100 sampled frames with ghosts on — holds 8352 × 100 × 2 × 8 B ≈ 12.7 MiB
// of dense rows plus its comm entries, so 256 MiB keeps the working set of
// a dozen or more such builds (or hundreds of small ones) resident beside
// a server's traces and trained models.
const workloadMemoBytes = 256 << 20

// workloadMemoNames are the workload memo's obs instruments.
var workloadMemoNames = memoNames{
	hits:      obs.ServeWorkloadCacheHits,
	misses:    obs.ServeWorkloadCacheMisses,
	evictions: obs.ServeWorkloadCacheEvictions,
	buildNs:   obs.ServeWorkloadBuildNs,
}

// newWorkloadMemo returns the server's workload memo: an attached memo (a
// build is cancelled when its last waiter leaves) charging each workload
// its resident bytes against capacity.
func newWorkloadMemo(life context.Context, capacity int64, reg *obs.Registry) *memo[workloadKey, *picpredict.Workload] {
	return newMemo[workloadKey](life, capacity, false, (*picpredict.Workload).ResidentBytes, reg, workloadMemoNames)
}

// trainerFunc trains a model set; swapped out by tests to avoid real
// training runs.
type trainerFunc func(ctx context.Context, kind picpredict.ModelKind, opts picpredict.TrainOptions) (picpredict.Models, error)

// Server is the long-running prediction service: loaded artefacts, the
// model registry, the workload memo, the admission-controlled worker pool,
// and the HTTP endpoints over them. Build one with New, register artefacts
// with AddTrace/AddWorkload, then either run the full lifecycle with Serve
// or mount Handler on an external server (tests use httptest).
type Server struct {
	cfg Config
	reg *obs.Registry

	traces       map[string]*traceArtefact
	workloads    map[string]*workloadArtefact
	defaultTrace string

	registry   *Registry
	wlMemo     *memo[workloadKey, *picpredict.Workload]
	cancelLife context.CancelFunc
	pool       *pool
	trainer    trainerFunc

	// instance tags this process in generated request IDs and the run
	// manifest; reqSeq numbers the IDs minted here.
	instance string
	reqSeq   atomic.Int64

	ready    atomic.Bool
	draining atomic.Bool
	inflight atomic.Int64

	mux     *http.ServeMux
	handler http.Handler
}

// New builds a Server from cfg (zero fields defaulted). Register at least
// one trace with AddTrace before serving; /readyz reports 503 until
// MarkReady (Serve calls it once the listener is accepting).
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	life, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:        cfg,
		reg:        cfg.Obs,
		traces:     make(map[string]*traceArtefact),
		workloads:  make(map[string]*workloadArtefact),
		registry:   NewRegistry(life, cfg.ModelCapacity, cfg.Obs),
		wlMemo:     newWorkloadMemo(life, workloadMemoBytes, cfg.Obs),
		cancelLife: cancel,
		pool:       newPool(cfg.Workers, cfg.Queue),
		trainer: func(_ context.Context, kind picpredict.ModelKind, opts picpredict.TrainOptions) (picpredict.Models, error) {
			return picpredict.TrainModelsKind(kind, opts)
		},
	}
	s.instance = newInstanceID()
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /v1/models", s.handleModels)
	s.mux.HandleFunc("POST /v1/predict", s.handlePredict)
	s.mux.HandleFunc("POST /v1/optimize", s.handleOptimize)
	s.handler = s.withRequestID(s.mux)
	return s
}

// AddTrace registers a loaded trace artefact under name; crc is its content
// checksum (it keys the model registry). The first trace added is the
// default scenario for requests that name none. A registered trace is never
// mutated — neither here nor by the caller afterwards — since the workloads
// built from it are memoized under the registration itself.
func (s *Server) AddTrace(name string, tr *picpredict.Trace, crc string) error {
	if name == "" {
		return errors.New("serve: trace artefact needs a name")
	}
	if _, dup := s.traces[name]; dup {
		return fmt.Errorf("serve: duplicate trace artefact %q", name)
	}
	s.traces[name] = &traceArtefact{name: name, tr: tr, crc: crc}
	if s.defaultTrace == "" {
		s.defaultTrace = name
	}
	return nil
}

// AddWorkload registers a pre-generated workload artefact under name.
func (s *Server) AddWorkload(name string, wl *picpredict.Workload, crc string) error {
	if name == "" {
		return errors.New("serve: workload artefact needs a name")
	}
	if _, dup := s.workloads[name]; dup {
		return fmt.Errorf("serve: duplicate workload artefact %q", name)
	}
	s.workloads[name] = &workloadArtefact{name: name, wl: wl, crc: crc}
	return nil
}

// Handler returns the service's HTTP handler — the four endpoints behind
// the request-ID middleware, plus admission control. Mount it on any
// server; Serve wires it to a listener with the full lifecycle.
func (s *Server) Handler() http.Handler { return s.handler }

// MarkReady flips /readyz to 200. Serve calls it automatically.
func (s *Server) MarkReady() { s.ready.Store(true) }

// Serve runs the service on ln until ctx is cancelled (SIGTERM via
// cli.Context), then drains gracefully: /readyz flips to 503 so load
// balancers stop routing, the listener closes, in-flight requests run to
// completion (bounded by DrainTimeout), and in-flight training is
// cancelled. A nil return means a clean drain — the caller can flush its
// obs manifest and exit 0.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	if len(s.traces) == 0 {
		return errors.New("serve: no trace artefacts loaded")
	}
	httpSrv := &http.Server{
		Handler:           s.handler,
		ReadHeaderTimeout: 10 * time.Second,
	}
	s.MarkReady()
	errCh := make(chan error, 1)
	//lint:allow goleak Serve returns when ln closes in the Shutdown below; errCh is buffered so the send never blocks
	go func() { errCh <- httpSrv.Serve(ln) }()
	select {
	case err := <-errCh:
		// The listener failed out from under us; not a drain.
		s.ready.Store(false)
		s.cancelLife()
		return fmt.Errorf("serve: %w", err)
	case <-ctx.Done():
	}
	s.draining.Store(true)
	s.ready.Store(false)
	stopDrain := s.reg.Timer(obs.ServeDrainNs).Start()
	drainCtx, cancel := context.WithTimeout(context.Background(), s.cfg.DrainTimeout)
	defer cancel()
	err := httpSrv.Shutdown(drainCtx)
	<-errCh // always http.ErrServerClosed once Shutdown begins
	stopDrain()
	s.cancelLife()
	if err != nil {
		return fmt.Errorf("serve: drain: %w", err)
	}
	return nil
}

// Close releases the server's resources without a drain (tests that never
// call Serve). Idempotent.
func (s *Server) Close() { s.cancelLife() }

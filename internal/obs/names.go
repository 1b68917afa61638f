package obs

// Canonical metric names of the serving layer (internal/serve + cmd/picserve).
//
// The obs instruments are keyed by free-form strings; these constants pin
// the serve-side names in one place so the handlers that record them, the
// tests that assert on them, and the dashboards reading /debug/vars off the
// -pprof endpoint agree on spelling. Batch-side names (pipeline.*, core.*,
// fused stage names, and bsst.* other than the replay counters below) stay
// literal at their single recording site.
const (
	// ServeRequests counts every /v1/predict request accepted past
	// admission control (whatever its final status).
	ServeRequests = "serve.requests"
	// ServeRejected counts requests turned away with 429 because the
	// admission queue was full.
	ServeRejected = "serve.rejected"
	// ServeTimeouts counts requests that hit their per-request deadline
	// (while queued or mid-prediction).
	ServeTimeouts = "serve.timeouts"
	// ServeErrors counts requests that failed with a 4xx/5xx other than
	// 429, timeout, and cache-only declines.
	ServeErrors = "serve.errors"
	// ServeColdDeclines counts cache-only predicts (hedged gate attempts)
	// declined with 409 because the model was not resident — by design, not
	// a fault.
	ServeColdDeclines = "serve.cold_declines"
	// ServeLatencyNs is the end-to-end /v1/predict latency histogram in
	// nanoseconds, admission wait included.
	ServeLatencyNs = "serve.request_ns"
	// ServeQueueDepth is a histogram of the admission-queue depth sampled
	// at each accepted request — how close the server runs to refusing.
	ServeQueueDepth = "serve.queue_depth"
	// ServeDrainNs times the graceful drain (SIGTERM to last in-flight
	// request finished).
	ServeDrainNs = "serve.drain_ns"

	// ServeCacheHits / ServeCacheMisses count model-registry lookups that
	// found a (ready or in-flight) entry vs. ones that started a training
	// run; ServeCacheEvictions counts LRU evictions under the capacity
	// bound.
	ServeCacheHits      = "serve.model_cache.hits"
	ServeCacheMisses    = "serve.model_cache.misses"
	ServeCacheEvictions = "serve.model_cache.evictions"
	// ServeTrainNs times registry training runs — one observation per
	// cache miss that ran the Model Generator.
	ServeTrainNs = "serve.model_train_ns"

	// ServeWorkloadCacheHits / ServeWorkloadCacheMisses count workload-memo
	// lookups (one per rank count of a trace query, one per distinct build
	// of a sweep) that found a (ready or in-flight) workload vs. ones that
	// started a build; ServeWorkloadCacheEvictions counts LRU evictions
	// under the memo's byte budget.
	ServeWorkloadCacheHits      = "serve.workload_cache.hits"
	ServeWorkloadCacheMisses    = "serve.workload_cache.misses"
	ServeWorkloadCacheEvictions = "serve.workload_cache.evictions"
	// ServeWorkloadBuildNs times workload-memo builds — one observation per
	// miss that ran the Dynamic Workload Generator, abandoned builds
	// included.
	ServeWorkloadBuildNs = "serve.workload_build_ns"
)

// Canonical metric names of the capacity-planning sweep engine
// (internal/sweep). The four phase timers partition one sweep's wall time:
// enumerate + build + evaluate + rank ≈ elapsed.
const (
	// SweepEnumerateNs times grid expansion and validation.
	SweepEnumerateNs = "sweep.enumerate_ns"
	// SweepBuildNs times the shared workload builds (one per distinct
	// (ranks, mapping) pair, whatever the config count).
	SweepBuildNs = "sweep.build_ns"
	// SweepEvaluateNs times the fan-out of per-config BSP evaluations.
	SweepEvaluateNs = "sweep.evaluate_ns"
	// SweepRankNs times frontier sorting, knee selection, and curve
	// assembly.
	SweepRankNs = "sweep.rank_ns"
	// SweepConfigs counts evaluated configurations; SweepSharedBuilds
	// counts the workload builds those configurations shared — the gap
	// between the two is the work memoization saved.
	SweepConfigs      = "sweep.configs"
	SweepSharedBuilds = "sweep.shared_builds"
)

// Canonical metric names of the dynamic load-balancing axis
// (internal/rebalance policies and the weighted mapping, both driven
// through mapping.DynamicMapper). The generator records the volume counters
// and the epoch count at workload-build time; the BSP simulator records the
// priced cost. Together a run manifest shows how often the mapping
// rebalanced, how much state moved, and what the model says that movement
// cost.
const (
	// RebalanceEpochs counts the frames whose drained migrations were
	// non-empty: assignment swaps that moved state, after the initial
	// install.
	RebalanceEpochs = "rebalance.epochs"
	// RebalanceMigratedElements / RebalanceMigratedParticles total the
	// element and resident-particle state that changed owners across all
	// epochs.
	RebalanceMigratedElements  = "rebalance.migrated_elements"
	RebalanceMigratedParticles = "rebalance.migrated_particles"
	// RebalanceMigratedBytes totals the modeled wire bytes of those
	// transfers under the machine's per-particle/per-grid-point sizes,
	// recorded by the simulator.
	RebalanceMigratedBytes = "rebalance.migrated_bytes"
	// RebalanceMigrationNs is a histogram of per-prediction migration cost
	// (the Migration column summed over intervals), in integer nanoseconds
	// of predicted time.
	RebalanceMigrationNs = "rebalance.migration_ns"
)

// Canonical metric names of the BSP simulator's replay accounting
// (internal/bsst). Each completed replay adds to both once; the gap between
// the two is the IterTime work the per-replay memo saved.
const (
	// BsstRankIntervals counts the (rank, interval) cells replayed: R × T
	// per replay.
	BsstRankIntervals = "bsst.rank_intervals"
	// BsstIterEvals counts IterTime evaluations — the distinct (np, ngp)
	// pairs of each replay, i.e. the memo's misses. Each evaluation runs
	// one model per kernel.
	BsstIterEvals = "bsst.iter_evals"
)

// Canonical metric names of the coordinator layer (internal/gate +
// cmd/picgate). Per-backend counters additionally exist under the
// GateBackendPrefix namespace: "gate.backend.<addr>.<kind>" with kind one of
// requests, failures, sheds, cold_skips, retries, hedges,
// breaker_transitions — built through gate's one recording helper so the
// spelling cannot drift ("sheds" are 429 admission rejections: retried on
// replicas, not breaker failures; "cold_skips" are hedges a replica
// declined with 409 because the model was not resident).
const (
	// GateRequests counts every /v1/predict request the gate accepted for
	// routing (whatever its final status).
	GateRequests = "gate.requests"
	// GateErrors counts requests that ultimately failed (a non-2xx/4xx
	// answer returned to the client after retries/hedging were exhausted).
	GateErrors = "gate.errors"
	// GateUnavailable counts 503 responses where every replica for the key
	// was down or breaker-open — the graceful-degradation path.
	GateUnavailable = "gate.unavailable"
	// GateRetries counts retry attempts launched after a failed primary
	// attempt; GateRetryBudgetDenied counts retries the budget refused.
	GateRetries           = "gate.retries"
	GateRetryBudgetDenied = "gate.retry_budget_denied"
	// GateHedges counts hedged (tail-latency) secondary attempts;
	// GateHedgeWins counts requests the hedge answered first — the
	// hedge-win ratio is GateHedgeWins / GateHedges.
	GateHedges    = "gate.hedges"
	GateHedgeWins = "gate.hedge_wins"
	// GateBreakerOpened / GateBreakerHalfOpen / GateBreakerClosed count
	// circuit-breaker state transitions across all backends.
	GateBreakerOpened   = "gate.breaker.opened"
	GateBreakerHalfOpen = "gate.breaker.half_open"
	GateBreakerClosed   = "gate.breaker.closed"
	// GateEjections / GateReinstatements count health-driven membership
	// changes; GateMembers is a histogram of the healthy-member count
	// sampled at every health sweep (the membership-size gauge).
	GateEjections      = "gate.health.ejections"
	GateReinstatements = "gate.health.reinstatements"
	GateMembers        = "gate.members"
	// GateLatencyNs is the end-to-end gate request latency histogram;
	// GateAttemptNs times individual backend attempts (retries and hedges
	// included).
	GateLatencyNs = "gate.request_ns"
	GateAttemptNs = "gate.attempt_ns"

	// GateBackendPrefix namespaces the per-backend counters.
	GateBackendPrefix = "gate.backend."
)

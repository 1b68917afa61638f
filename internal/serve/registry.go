// Package serve is the long-running prediction service behind cmd/picserve:
// a model registry (trained kernel-model sets keyed by artefact × training
// configuration, LRU-bounded, singleflight-deduplicated), a workload memo
// (generated workloads keyed by trace artefact × generator options,
// bounded by resident bytes), a bounded worker pool with queue-depth
// admission control, and the HTTP handlers that expose prediction queries
// over loaded trace/workload artefacts.
//
// The paper's value proposition — trained kernel models plus the BSP
// simulator answer what-if questions far faster than re-running the
// application — is exactly the shape of an inference service: load the
// artefacts once, train a model per configuration once, then serve every
// "how would this run at R ranks on machine M?" query from memory.
package serve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"picpredict"
	"picpredict/internal/obs"
)

// TrainFunc produces the model set for one registry key. The registry
// invokes it at most once per key at a time (singleflight) on its own
// lifecycle context, never a request context — a cancelled request must not
// abort a training run other requests are waiting on.
type TrainFunc func(ctx context.Context) (picpredict.Models, error)

// ModelKey is the SHA-256 fingerprint identifying one trained model
// configuration: artefact checksum × model kind × training options.
type ModelKey string

// Fingerprint derives the registry key for training kind-variant models
// with opts against the artefact whose content checksum is artefactCRC.
// Every field that changes what the Model Generator produces is folded in;
// anything else (platform, machine, ranks) deliberately is not — those vary
// per query over the same trained models.
func Fingerprint(artefactCRC string, kind picpredict.ModelKind, opts picpredict.TrainOptions) ModelKey {
	h := sha256.New()
	fmt.Fprintf(h, "artefact=%s|kind=%s|noise=%g|seed=%d|wallclock=%t|fast=%t",
		artefactCRC, kind, opts.Noise, opts.Seed, opts.WallClock, opts.Fast)
	return ModelKey(hex.EncodeToString(h.Sum(nil)))
}

// Registry is the model cache at the heart of the serving layer: trained
// model sets in a size-bounded LRU with singleflight deduplication, so N
// concurrent requests for an untrained configuration trigger exactly one
// training run and the hot configurations of a long-running server stay
// resident. It is the detached instance of the server's memo: every model
// set costs 1 against the capacity, and training runs on the registry's
// lifecycle context, never a request's.
type Registry struct {
	m *memo[ModelKey, picpredict.Models]
}

// modelMemoNames are the registry's obs instruments.
var modelMemoNames = memoNames{
	hits:      obs.ServeCacheHits,
	misses:    obs.ServeCacheMisses,
	evictions: obs.ServeCacheEvictions,
	buildNs:   obs.ServeTrainNs,
}

// NewRegistry returns a registry holding at most capacity trained model
// sets (minimum 1). Training runs on ctx — cancel it on server shutdown to
// abort in-flight training. reg (nil-safe) receives hit/miss/eviction
// counters and training timings.
func NewRegistry(ctx context.Context, capacity int, reg *obs.Registry) *Registry {
	one := func(picpredict.Models) int64 { return 1 }
	return &Registry{m: newMemo[ModelKey](ctx, int64(capacity), true, one, reg, modelMemoNames)}
}

// GetOrTrain returns the models for key, training them with train on a
// miss. Concurrent callers with the same key collapse onto one training
// run: the first starts it, the rest wait on the same entry. hit reports
// whether an entry (ready or in flight) already existed. A cancelled ctx
// abandons the wait without aborting the training run.
func (r *Registry) GetOrTrain(ctx context.Context, key ModelKey, kind picpredict.ModelKind, train TrainFunc) (m picpredict.Models, hit bool, err error) {
	return r.m.get(ctx, key, string(kind), train)
}

// Peek returns the models for key without ever starting a training run: a
// resident entry (ready or in flight) is joined exactly like a hit, an
// absent key reports ok=false immediately. This is the cache-only path
// behind hedged gate attempts — a hedge exists to shave tail latency, so it
// must never pay a cold training bill on a replica.
func (r *Registry) Peek(ctx context.Context, key ModelKey) (m picpredict.Models, ok bool, err error) {
	return r.m.peek(ctx, key)
}

// Len returns the number of resident entries (in-flight included).
func (r *Registry) Len() int { return r.m.len() }

// EntryInfo is one registry slot frozen for /v1/models.
type EntryInfo struct {
	Key   ModelKey             `json:"key"`
	Kind  picpredict.ModelKind `json:"kind"`
	State string               `json:"state"` // "training" or "ready"
	Hits  int64                `json:"hits"`
	// TrainMs is the training wall time in milliseconds (0 while training).
	TrainMs float64 `json:"train_ms"`
}

// Entries snapshots the registry in most-recently-used-first order.
func (r *Registry) Entries() []EntryInfo {
	snap := r.m.snapshot()
	out := make([]EntryInfo, len(snap))
	for i, e := range snap {
		out[i] = EntryInfo{Key: e.key, Kind: picpredict.ModelKind(e.label), State: "training", Hits: e.hits}
		if e.ready {
			out[i].State = "ready"
			out[i].TrainMs = float64(e.buildNs) / 1e6
		}
	}
	return out
}

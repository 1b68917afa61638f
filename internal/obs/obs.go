// Package obs is the runtime observability layer: near-zero-overhead
// instrumentation primitives (atomic counters, bounded histograms,
// monotonic stage timers) behind a Registry that is a complete no-op when
// disabled.
//
// The design follows one rule: *absence is free*. Every lookup on a nil
// *Registry returns a nil instrument, and every method on a nil instrument
// returns immediately — so hot paths grab their instruments once, call them
// unconditionally, and pay a single pointer test per event when
// observability is off. Code that must avoid even a clock read guards on
// Registry == nil (one branch) before calling time.Now.
//
// A Registry travels two ways: explicitly (core.Generator.SetObs,
// bsst.Platform.Obs, picpredict.FusedOptions.Obs) for stages that hold it
// for their lifetime, and through a context (With/From) for the streaming
// functions whose signatures already carry one. Snapshot freezes every
// instrument into plain values; manifest.go turns a snapshot plus run
// metadata into the durable JSON artefact the cmd binaries emit with
// -metrics, and expvar.go exposes the live registry for -pprof.
package obs

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// Registry owns a run's instruments, keyed by name. The zero value is not
// usable; call New. A nil *Registry is the disabled layer: every method is
// a no-op and every lookup returns a nil (also no-op) instrument.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	timers   map[string]*Timer
	hists    map[string]*Histogram

	stageMu   sync.Mutex
	stageMark time.Time
	stages    []Stage
}

// New returns an enabled registry. The stage clock starts now.
func New() *Registry {
	return &Registry{
		counters:  make(map[string]*Counter),
		timers:    make(map[string]*Timer),
		hists:     make(map[string]*Histogram),
		stageMark: time.Now(),
	}
}

// Counter returns the named counter, creating it on first use. Nil-safe.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Timer returns the named timer, creating it on first use. Nil-safe.
func (r *Registry) Timer(name string) *Timer {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	t := r.timers[name]
	if t == nil {
		t = &Timer{}
		r.timers[name] = t
	}
	return t
}

// Histogram returns the named histogram, creating it on first use.
// Nil-safe.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = newHistogram()
		r.hists[name] = h
	}
	return h
}

// Stage is one sequential segment of a run's wall time.
type Stage struct {
	Name  string `json:"name"`
	Nanos int64  `json:"ns"`
}

// StageDone closes the current stage: it records the time elapsed since the
// previous StageDone (or since New) under name and restarts the stage
// clock. Consecutive calls therefore partition wall time, which is what
// lets a manifest's stage breakdown sum to the run's duration. Nil-safe.
func (r *Registry) StageDone(name string) {
	if r == nil {
		return
	}
	now := time.Now()
	r.stageMu.Lock()
	defer r.stageMu.Unlock()
	r.stages = append(r.stages, Stage{Name: name, Nanos: now.Sub(r.stageMark).Nanoseconds()})
	r.stageMark = now
}

// Stages returns a copy of the recorded stage breakdown. Nil-safe.
func (r *Registry) Stages() []Stage {
	if r == nil {
		return nil
	}
	r.stageMu.Lock()
	defer r.stageMu.Unlock()
	return append([]Stage(nil), r.stages...)
}

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by d. Nil-safe.
func (c *Counter) Add(d int64) {
	if c == nil {
		return
	}
	c.v.Add(d)
}

// Inc increments the counter by one. Nil-safe.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Timer accumulates durations: total nanoseconds and observation count.
type Timer struct {
	count atomic.Int64
	nanos atomic.Int64
}

// Observe records one duration. Nil-safe.
func (t *Timer) Observe(d time.Duration) {
	if t == nil {
		return
	}
	t.count.Add(1)
	t.nanos.Add(d.Nanoseconds())
}

// Start returns a stop function recording the elapsed time when called.
// On a nil timer the returned function is a no-op (and no clock is read).
func (t *Timer) Start() func() {
	if t == nil {
		return func() {}
	}
	t0 := time.Now()
	return func() { t.Observe(time.Since(t0)) }
}

// Count returns the number of observations (0 on nil).
func (t *Timer) Count() int64 {
	if t == nil {
		return 0
	}
	return t.count.Load()
}

// Total returns the accumulated duration (0 on nil).
func (t *Timer) Total() time.Duration {
	if t == nil {
		return 0
	}
	return time.Duration(t.nanos.Load())
}

// TimerSummary is a timer frozen into plain values.
type TimerSummary struct {
	Count int64 `json:"count"`
	Nanos int64 `json:"total_ns"`
}

// Snapshot is a registry frozen into plain values, ready for JSON encoding
// (the manifest) or expvar exposure. Instruments observed concurrently with
// the snapshot land in either the old or new value — each instrument is
// individually consistent.
type Snapshot struct {
	Counters   map[string]int64          `json:"counters,omitempty"`
	Timers     map[string]TimerSummary   `json:"timers,omitempty"`
	Histograms map[string]HistogramStats `json:"histograms,omitempty"`
	Stages     []Stage                   `json:"stages,omitempty"`
}

// Snapshot freezes every instrument. Nil-safe (returns the zero Snapshot).
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	r.mu.Lock()
	if len(r.counters) > 0 {
		s.Counters = make(map[string]int64, len(r.counters))
		for name, c := range r.counters {
			s.Counters[name] = c.Value()
		}
	}
	if len(r.timers) > 0 {
		s.Timers = make(map[string]TimerSummary, len(r.timers))
		for name, t := range r.timers {
			s.Timers[name] = TimerSummary{Count: t.Count(), Nanos: t.Total().Nanoseconds()}
		}
	}
	if len(r.hists) > 0 {
		s.Histograms = make(map[string]HistogramStats, len(r.hists))
		for name, h := range r.hists {
			s.Histograms[name] = h.Stats()
		}
	}
	r.mu.Unlock()
	s.Stages = r.Stages()
	return s
}

// ctxKey is the context key type for registry propagation.
type ctxKey struct{}

// With returns a context carrying r. With(ctx, nil) returns ctx unchanged,
// so disabled observability costs nothing downstream.
func With(ctx context.Context, r *Registry) context.Context {
	if r == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, r)
}

// From returns the registry carried by ctx, or nil when observability is
// disabled — callers treat the nil exactly like any other nil *Registry.
func From(ctx context.Context) *Registry {
	r, _ := ctx.Value(ctxKey{}).(*Registry)
	return r
}

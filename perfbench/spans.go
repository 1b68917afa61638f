package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer of the program. Start and End are
// offsets from the recorder's creation; Parent is 0 for a top-level span.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Name   string        `json:"name"`
	Req    string        `json:"req,omitempty"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// recorder keeps spans in memory until the run ends. A nil *recorder is
// tracing switched off: every method is a no-op, so untraced runs pay
// nothing for the calls.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// now is the offset of the current instant from the recorder's start.
func (r *recorder) now() time.Duration { return time.Since(r.t0) }

// start opens a span and returns its ID (0 when tracing is off).
func (r *recorder) start(parent int, name, req string) int {
	if r == nil {
		return 0
	}
	t := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Req: req, Start: t, End: -1})
	return id
}

// end closes span id.
func (r *recorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	t := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id-1].End = t
}

// snapshot returns the closed spans.
func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]span, 0, len(r.spans))
	for _, s := range r.spans {
		if s.End >= s.Start {
			out = append(out, s)
		}
	}
	return out
}

// writeFile writes the spans as a JSON array.
func (r *recorder) writeFile(path string) error {
	raw, err := json.Marshal(r.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// sumByName totals the durations of the spans called name.
func sumByName(spans []span, name string) time.Duration {
	var d time.Duration
	for _, s := range spans {
		if s.Name == name {
			d += s.dur()
		}
	}
	return d
}

// covered is the length of the union of the spans' intervals, clipped to
// [lo, hi]. Concurrent spans that overlap are counted once.
func covered(spans []span, lo, hi time.Duration) time.Duration {
	type iv struct{ a, b time.Duration }
	ivs := make([]iv, 0, len(spans))
	for _, s := range spans {
		a, b := max(s.Start, lo), min(s.End, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB time.Duration
	open := false
	for _, v := range ivs {
		if open && v.a <= curB {
			curB = max(curB, v.b)
			continue
		}
		if open {
			total += curB - curA
		}
		curA, curB, open = v.a, v.b, true
	}
	if open {
		total += curB - curA
	}
	return total
}

// selfTime is a span's duration minus the part of it its children cover.
func selfTime(parent span, all []span) time.Duration {
	var kids []span
	for _, s := range all {
		if s.Parent == parent.ID && s.ID != parent.ID {
			kids = append(kids, s)
		}
	}
	return parent.dur() - covered(kids, parent.Start, parent.End)
}

// coverage is the share of [0, wall] that top-level spans cover.
func coverage(spans []span, wall time.Duration) float64 {
	if wall <= 0 {
		return 0
	}
	var top []span
	for _, s := range spans {
		if s.Parent == 0 {
			top = append(top, s)
		}
	}
	return float64(covered(top, 0, wall)) / float64(wall)
}

// spanTotal sums the spans of one name.
type spanTotal struct {
	Count  int     `json:"count"`
	TotalS float64 `json:"total_s"`
	SelfS  float64 `json:"self_s"`
}

// spanTable totals each span name's duration and self time: where a traced
// run's time went, layer by layer.
func spanTable(spans []span) map[string]spanTotal {
	out := map[string]spanTotal{}
	for _, s := range spans {
		t := out[s.Name]
		t.Count++
		t.TotalS += s.dur().Seconds()
		t.SelfS += selfTime(s, spans).Seconds()
		out[s.Name] = t
	}
	return out
}

// Package pipeline streams trace frames from a source to the sinks that
// consume them — trace writers and the Dynamic Workload Generator (§II) —
// under one context, in one process. Callers replay the finished workloads
// on the Simulation Platform (bsst.Platform.SimulateBSP).
//
// Two wiring modes share the same stage types:
//
//   - file-at-rest: a stage boundary is an artefact file (trace, workload),
//     exactly as the standalone cmd binaries always worked — ReaderSource
//     reads a trace, WriterSink writes one;
//   - fused: a live PIC simulation (SimSource) feeds workload builders
//     frame-by-frame with no intermediate files; positions are quantised
//     through the trace format's float32 on the way, so both modes produce
//     bit-identical workloads.
//
// Stages honour context cancellation between frames: a cancelled Stream
// returns ctx.Err() with every sink having seen a clean frame prefix, which
// is what lets a SIGINT'd run write a final checkpoint and resume later.
package pipeline

import (
	"context"
	"fmt"
	"strings"
	"time"

	"picpredict/internal/geom"
	"picpredict/internal/obs"
)

// EmitFunc receives one trace frame. The pos slice is only valid for the
// duration of the call; implementations that retain frames must copy.
type EmitFunc func(iteration int, pos []geom.Vec3) error

// FrameSource produces trace frames in iteration order by pushing them into
// an emit callback (push style keeps sources free to reuse one frame
// buffer).
type FrameSource interface {
	// NumParticles returns N_p — every emitted frame has exactly this many
	// positions.
	NumParticles() int
	// Stream emits every remaining frame in order, stopping early with
	// ctx.Err() when the context is cancelled or with the first emit
	// error.
	Stream(ctx context.Context, emit EmitFunc) error
}

// FrameSink consumes trace frames in order. core.Generator, trace.Writer
// adapters, and checkpoint bookkeeping all sit behind this one interface.
type FrameSink interface {
	Frame(iteration int, pos []geom.Vec3) error
}

// NamedStage lets a sink (or source) choose the name its per-stage metrics
// are recorded under; stages without it are named after their Go type.
type NamedStage interface {
	StageName() string
}

// stageName derives the metric label of a sink: the NamedStage name when
// implemented, else the bare type name ("GeneratorBuilder", "WriterSink").
func stageName(s FrameSink) string {
	if n, ok := s.(NamedStage); ok {
		return n.StageName()
	}
	t := fmt.Sprintf("%T", s)
	t = strings.TrimPrefix(t, "*")
	if i := strings.LastIndexByte(t, '.'); i >= 0 {
		t = t[i+1:]
	}
	return t
}

// sinkMetrics binds one sink's per-frame latency histogram, resolved once
// per stream so the per-frame cost is a clock read and an atomic add.
type sinkMetrics struct {
	frames *obs.Counter
	lat    []*obs.Histogram // one per sink, index-aligned
}

// newSinkMetrics resolves the stream's instruments from the context
// registry; a nil return means observability is off and the caller takes
// its uninstrumented path.
func newSinkMetrics(ctx context.Context, sinks []FrameSink) *sinkMetrics {
	reg := obs.From(ctx)
	if reg == nil {
		return nil
	}
	m := &sinkMetrics{
		frames: reg.Counter("pipeline.frames"),
		lat:    make([]*obs.Histogram, len(sinks)),
	}
	for i, s := range sinks {
		m.lat[i] = reg.Histogram("pipeline.stage." + stageName(s) + ".frame_ns")
	}
	return m
}

// feed hands one frame to every sink, timing each when instrumented.
func (m *sinkMetrics) feed(sinks []FrameSink, it int, pos []geom.Vec3) error {
	if m == nil {
		for _, s := range sinks {
			if err := s.Frame(it, pos); err != nil {
				return err
			}
		}
		return nil
	}
	for i, s := range sinks {
		t0 := time.Now()
		if err := s.Frame(it, pos); err != nil {
			return err
		}
		m.lat[i].Observe(time.Since(t0).Nanoseconds())
	}
	m.frames.Inc()
	return nil
}

// Stream drives src synchronously through the sinks: every frame is handed
// to each sink in order before the source produces the next one. This is
// the mode checkpointed runs need — the producer never runs ahead of what
// the sinks (and therefore the durable trace) have seen.
//
// When the context carries an obs.Registry (obs.With), every sink's
// per-frame latency is recorded under pipeline.stage.<name>.frame_ns; with
// no registry the loop is the bare dispatch it always was.
func Stream(ctx context.Context, src FrameSource, sinks ...FrameSink) error {
	m := newSinkMetrics(ctx, sinks)
	return src.Stream(ctx, func(it int, pos []geom.Vec3) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		return m.feed(sinks, it, pos)
	})
}

// StreamConcurrent drives src through the sinks with a bounded channel of
// depth frames between producer and consumers: the source keeps simulating
// (or reading) while the sinks chew on earlier frames. Frame buffers are
// recycled through a free list, so steady-state allocation is zero. A depth
// of 0 degrades to the synchronous Stream. The first error from either side
// cancels the other; on return no goroutines remain.
// Enabled observability additionally records the producer-side view of the
// bounded channel: pipeline.chan_depth (occupancy at each enqueue, the
// back-pressure signal), and pipeline.freelist_hit / pipeline.freelist_miss
// (buffer-pool effectiveness — misses allocate).
func StreamConcurrent(ctx context.Context, src FrameSource, depth int, sinks ...FrameSink) error {
	if depth <= 0 {
		return Stream(ctx, src, sinks...)
	}
	type frame struct {
		it  int
		pos []geom.Vec3
	}
	frames := make(chan frame, depth)
	free := make(chan []geom.Vec3, depth+1)
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()

	m := newSinkMetrics(ctx, sinks)
	var chanDepth *obs.Histogram
	var freeHit, freeMiss *obs.Counter
	if reg := obs.From(ctx); reg != nil {
		chanDepth = reg.Histogram("pipeline.chan_depth")
		freeHit = reg.Counter("pipeline.freelist_hit")
		freeMiss = reg.Counter("pipeline.freelist_miss")
	}

	var sinkErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		for f := range frames {
			if err := m.feed(sinks, f.it, f.pos); err != nil {
				sinkErr = err
				cancel() // unblock the producer; remaining frames are dropped
				return
			}
			select {
			case free <- f.pos:
			default:
			}
		}
	}()

	srcErr := src.Stream(cctx, func(it int, pos []geom.Vec3) error {
		var buf []geom.Vec3
		select {
		case buf = <-free:
			freeHit.Inc()
		default:
			freeMiss.Inc()
		}
		if cap(buf) < len(pos) {
			buf = make([]geom.Vec3, len(pos))
		}
		buf = buf[:len(pos)]
		copy(buf, pos)
		chanDepth.Observe(int64(len(frames)))
		select {
		case frames <- frame{it: it, pos: buf}:
			return nil
		case <-cctx.Done():
			return cctx.Err()
		}
	})
	close(frames)
	<-done

	if sinkErr != nil {
		// The producer's context error is a symptom of the sink failure.
		return sinkErr
	}
	return srcErr
}

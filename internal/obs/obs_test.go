package obs

import (
	"context"
	"sync"
	"testing"
	"time"
)

func TestNilRegistryIsFullyNoOp(t *testing.T) {
	var r *Registry
	// Every lookup and every instrument method must be callable on nil.
	r.Counter("c").Add(5)
	r.Counter("c").Inc()
	if got := r.Counter("c").Value(); got != 0 {
		t.Fatalf("nil counter value = %d, want 0", got)
	}
	r.Timer("t").Observe(time.Second)
	r.Timer("t").Start()()
	if got := r.Timer("t").Total(); got != 0 {
		t.Fatalf("nil timer total = %v, want 0", got)
	}
	r.Histogram("h").Observe(42)
	if got := r.Histogram("h").Stats(); got.Count != 0 {
		t.Fatalf("nil histogram count = %d, want 0", got.Count)
	}
	r.StageDone("s")
	if got := r.Stages(); got != nil {
		t.Fatalf("nil stages = %v, want nil", got)
	}
	snap := r.Snapshot()
	if snap.Counters != nil || snap.Stages != nil {
		t.Fatalf("nil snapshot not empty: %+v", snap)
	}
}

func TestCounterAndTimer(t *testing.T) {
	r := New()
	c := r.Counter("frames")
	c.Add(3)
	c.Inc()
	if got := c.Value(); got != 4 {
		t.Fatalf("counter = %d, want 4", got)
	}
	if r.Counter("frames") != c {
		t.Fatal("same name must return the same counter")
	}

	tm := r.Timer("work")
	tm.Observe(10 * time.Millisecond)
	tm.Observe(20 * time.Millisecond)
	if got := tm.Count(); got != 2 {
		t.Fatalf("timer count = %d, want 2", got)
	}
	if got := tm.Total(); got != 30*time.Millisecond {
		t.Fatalf("timer total = %v, want 30ms", got)
	}
}

func TestCounterConcurrent(t *testing.T) {
	r := New()
	const workers, each = 8, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("shared")
			for i := 0; i < each; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("shared").Value(); got != workers*each {
		t.Fatalf("concurrent counter = %d, want %d", got, workers*each)
	}
}

func TestStagesPartitionWallTime(t *testing.T) {
	start := time.Now()
	r := New()
	time.Sleep(5 * time.Millisecond)
	r.StageDone("first")
	time.Sleep(5 * time.Millisecond)
	r.StageDone("second")
	wall := time.Since(start).Nanoseconds()

	stages := r.Stages()
	if len(stages) != 2 || stages[0].Name != "first" || stages[1].Name != "second" {
		t.Fatalf("stages = %+v", stages)
	}
	var sum int64
	for _, s := range stages {
		if s.Nanos <= 0 {
			t.Fatalf("stage %s has non-positive duration %d", s.Name, s.Nanos)
		}
		sum += s.Nanos
	}
	// The stage clock starts at New and stops at the last StageDone, both
	// inside [start, start+wall]; the sum can never exceed wall measured
	// around them.
	if sum > wall {
		t.Fatalf("stage sum %d exceeds wall %d", sum, wall)
	}
	if sum < wall/2 {
		t.Fatalf("stage sum %d under half the wall %d — stages missing time", sum, wall)
	}
}

func TestSnapshot(t *testing.T) {
	r := New()
	r.Counter("a").Add(7)
	r.Timer("t").Observe(time.Microsecond)
	r.Histogram("h").Observe(100)
	r.StageDone("only")

	s := r.Snapshot()
	if s.Counters["a"] != 7 {
		t.Fatalf("snapshot counter = %d, want 7", s.Counters["a"])
	}
	if s.Timers["t"].Count != 1 || s.Timers["t"].Nanos != 1000 {
		t.Fatalf("snapshot timer = %+v", s.Timers["t"])
	}
	if s.Histograms["h"].Count != 1 || s.Histograms["h"].Sum != 100 {
		t.Fatalf("snapshot histogram = %+v", s.Histograms["h"])
	}
	if len(s.Stages) != 1 || s.Stages[0].Name != "only" {
		t.Fatalf("snapshot stages = %+v", s.Stages)
	}
}

func TestContextPropagation(t *testing.T) {
	ctx := context.Background()
	if From(ctx) != nil {
		t.Fatal("empty context must carry no registry")
	}
	if With(ctx, nil) != ctx {
		t.Fatal("With(ctx, nil) must return ctx unchanged")
	}
	r := New()
	if got := From(With(ctx, r)); got != r {
		t.Fatal("registry lost in context round-trip")
	}
}

func TestPublishExpvarTwiceDoesNotPanic(t *testing.T) {
	r1 := New()
	r1.Counter("x").Add(1)
	r1.PublishExpvar("obs_test_registry")
	r2 := New()
	r2.Counter("x").Add(2)
	r2.PublishExpvar("obs_test_registry") // must redirect, not panic
}

package main

import (
	"errors"
	"math"
	"net/http"
	"testing"
	"time"
)

func TestPercentileInterpolates(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	cases := []struct{ q, want float64 }{{0, 1}, {50, 2.5}, {100, 4}, {75, 3.25}}
	for _, c := range cases {
		if got := percentile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v, %g) = %g, want %g", xs, c.q, got, c.want)
		}
	}
	if xs[0] != 4 {
		t.Errorf("percentile reordered its input: %v", xs)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of no samples = %g, want 0", got)
	}
}

func TestTailPercentileLeavesTenBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
	}{
		{1, 100}, {11, 100}, {91, 100}, // too few for p90: the maximum
		{92, 90}, {181, 90},
		{182, 95}, {220, 95}, {901, 95},
		{902, 99}, {5000, 99},
		{10000, 99.9},
	}
	for _, c := range cases {
		got := tailPercentile(c.n)
		if got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
		if got < 100 && beyond(c.n, got) < minBeyond {
			t.Errorf("n=%d: p%g leaves %d samples beyond it", c.n, got, beyond(c.n, got))
		}
	}
}

func TestTailOfFewSamplesIsTheMaximum(t *testing.T) {
	v, q := tail([]float64{3, 9, 1})
	if v != 9 || q != 100 {
		t.Errorf("tail of 3 samples = (%g, p%g), want (9, p100)", v, q)
	}
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	v, q = tail(xs)
	if q != 95 {
		t.Fatalf("tail of 200 samples reports p%g, want p95", q)
	}
	above := 0
	for _, x := range xs {
		if x > v {
			above++
		}
	}
	if above != 10 {
		t.Errorf("p95 of 1..200 = %g leaves %d samples above, want 10", v, above)
	}
}

func TestLateness(t *testing.T) {
	ms := time.Millisecond
	cases := []struct{ due, sent, want time.Duration }{
		{10 * ms, 10 * ms, 0},       // on time
		{10 * ms, 4 * ms, 0},        // early is not negative lateness
		{10 * ms, 25 * ms, 15 * ms}, // late
		{0, 3 * time.Second, 3 * time.Second},
	}
	for _, c := range cases {
		if got := lateness(c.due, c.sent); got != c.want {
			t.Errorf("lateness(due %v, sent %v) = %v, want %v", c.due, c.sent, got, c.want)
		}
	}
	s := sample{due: 100 * ms, sent: 130 * ms, done: 180 * ms}
	if s.latency() != 80*ms || s.service() != 50*ms || s.late() != 30*ms {
		t.Errorf("sample latency/service/late = %v/%v/%v, want 80ms/50ms/30ms", s.latency(), s.service(), s.late())
	}
}

func TestFailureCounting(t *testing.T) {
	cases := []struct {
		name string
		o    outcome
		fail bool
	}{
		{"answered and matched", outcome{status: http.StatusOK, ok: true}, false},
		{"in-process call matched", outcome{ok: true}, false},
		{"answer mismatched", outcome{status: http.StatusOK, ok: false}, true},
		{"shed", outcome{status: http.StatusTooManyRequests, ok: true}, true},
		{"timed out", outcome{status: http.StatusGatewayTimeout, ok: true}, true},
		{"server error", outcome{status: http.StatusInternalServerError, ok: true}, true},
		{"draining", outcome{status: http.StatusServiceUnavailable, ok: true}, true},
		{"transport error", outcome{err: errors.New("connection reset"), ok: true}, true},
	}
	var tl tally
	want := int64(0)
	for _, c := range cases {
		if got := c.o.failed(); got != c.fail {
			t.Errorf("%s: failed() = %t, want %t", c.name, got, c.fail)
		}
		if tl.add(c.o) != c.fail {
			t.Errorf("%s: tally.add disagreed with failed()", c.name)
		}
		if c.fail {
			want++
		}
	}
	if tl.attempted != int64(len(cases)) || tl.failed != want {
		t.Errorf("tally = %d attempted, %d failed; want %d, %d", tl.attempted, tl.failed, len(cases), want)
	}
	if got, exp := tl.errorRate(), float64(want)/float64(len(cases)); got != exp {
		t.Errorf("errorRate = %g, want %g", got, exp)
	}
	if (tally{}).errorRate() != 0 {
		t.Error("error rate of nothing attempted is not 0")
	}
}

func TestDigestSeesEveryBit(t *testing.T) {
	a := []float64{1.5, 2.25, 3}
	if digest(a) != digest([]float64{1.5, 2.25, 3}) {
		t.Error("digest is not a function of its input")
	}
	b := []float64{1.5, math.Nextafter(2.25, 3), 3}
	if digest(a) == digest(b) {
		t.Error("digest missed a one-ulp change")
	}
	if digest(a) == digest([]float64{2.25, 1.5, 3}) {
		t.Error("digest ignores order")
	}
	if float64(digest(a)) != float64(uint32(float64(digest(a)))) {
		t.Error("digest does not survive a JSON number")
	}
}

func TestRepeatHonoursMinimumAndWindow(t *testing.T) {
	calls := 0
	if err := repeat(0, 3, func(int) error { calls++; return nil }); err != nil || calls != 3 {
		t.Errorf("repeat with an empty window ran %d times (err %v), want the minimum 3", calls, err)
	}
	calls = 0
	if err := repeat(5*time.Millisecond, 1, func(int) error { calls++; return nil }); err != nil || calls < 2 {
		t.Errorf("repeat of an instant op over 5ms ran %d times (err %v), want more than one", calls, err)
	}
	calls = 0
	stop := errors.New("stop")
	if err := repeat(time.Hour, 5, func(rep int) error {
		calls++
		if rep == 1 {
			return stop
		}
		return nil
	}); !errors.Is(err, stop) || calls != 2 {
		t.Errorf("repeat after a failing op: %d calls, err %v; want 2 calls and the op's error", calls, err)
	}
}

package main

import (
	"testing"
	"time"
)

func sp(id, parent int, start, end time.Duration) span {
	return span{ID: id, Parent: parent, Name: "s", Start: start, End: end}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	parent := sp(1, 0, 0, 100)
	cases := []struct {
		name string
		kids []span
		want time.Duration
	}{
		{"no children", nil, 100},
		{"disjoint children", []span{sp(2, 1, 10, 30), sp(3, 1, 50, 60)}, 70},
		{"overlapping concurrent children count once", []span{sp(2, 1, 10, 40), sp(3, 1, 20, 50)}, 60},
		{"nested child inside child", []span{sp(2, 1, 10, 60), sp(3, 1, 20, 30)}, 50},
		{"child spilling past the parent is clipped", []span{sp(2, 1, 80, 130)}, 80},
		{"grandchildren are not the parent's children", []span{sp(2, 1, 10, 20), sp(3, 2, 30, 90)}, 90},
		{"children cover everything", []span{sp(2, 1, 0, 100)}, 0},
	}
	for _, c := range cases {
		all := append([]span{parent}, c.kids...)
		if got := selfTime(parent, all); got != c.want {
			t.Errorf("%s: selfTime = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestCoverageCountsTopLevelUnion(t *testing.T) {
	spans := []span{sp(1, 0, 0, 40), sp(2, 0, 30, 60), sp(3, 1, 0, 100), sp(4, 0, 80, 90)}
	// Top level covers [0,60] and [80,90]: 70 of 100.
	if got := coverage(spans, 100); got != 0.7 {
		t.Errorf("coverage = %g, want 0.7", got)
	}
	if got := coverage(nil, 100); got != 0 {
		t.Errorf("coverage of nothing = %g, want 0", got)
	}
}

func TestRecorderNilIsOff(t *testing.T) {
	var r *recorder
	id := r.start(0, "x", "")
	r.end(id)
	if id != 0 || r.snapshot() != nil {
		t.Error("a nil recorder recorded a span")
	}
}

func TestRecorderKeepsClosedSpans(t *testing.T) {
	r := newRecorder()
	outer := r.start(0, "outer", "")
	inner := r.start(outer, "inner", "req-1")
	r.end(inner)
	open := r.start(0, "open", "")
	r.end(outer)
	got := r.snapshot()
	if len(got) != 2 {
		t.Fatalf("snapshot has %d spans, want the 2 closed ones", len(got))
	}
	if got[1].Parent != outer || got[1].Req != "req-1" || open == 0 {
		t.Errorf("inner span = %+v, want parent %d and request req-1", got[1], outer)
	}
	if sumByName(got, "inner") != got[1].dur() {
		t.Error("sumByName missed the inner span")
	}
}

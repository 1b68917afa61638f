package main

import (
	"reflect"
	"testing"
)

func TestApportionIsExact(t *testing.T) {
	for _, n := range []int{0, 1, 7, 220, 221} {
		counts := apportion(zipfWeights(42), n)
		total := 0
		for i, c := range counts {
			total += c
			if i > 0 && c > counts[i-1]+1 {
				t.Errorf("n=%d: body %d drawn %d times, more than the heavier body %d (%d)", n, i, c, i-1, counts[i-1])
			}
		}
		if total != n {
			t.Errorf("n=%d: apportioned %d draws", n, total)
		}
	}
	if got := apportion([]float64{1, 1, 1}, 10); !reflect.DeepEqual(got, []int{4, 3, 3}) {
		t.Errorf("even split of 10 over 3 = %v, want [4 3 3]", got)
	}
}

func TestScheduleMixIsFixedOrderIsSeeded(t *testing.T) {
	a := schedule(1, 440, 42, 3)
	b := schedule(2, 440, 42, 3)
	if reflect.DeepEqual(a, b) {
		t.Error("two seeds drew the same order")
	}
	if !reflect.DeepEqual(a, schedule(1, 440, 42, 3)) {
		t.Error("one seed drew two orders")
	}
	count := func(items []item) map[item]int {
		m := map[item]int{}
		for _, it := range items {
			m[it]++
		}
		return m
	}
	if !reflect.DeepEqual(count(a), count(b)) {
		t.Error("the request multiset depends on the seed")
	}
	queries := 0
	for _, it := range a {
		if it.class == classQuery {
			queries++
		}
	}
	if queries != 220 {
		t.Errorf("%d of 440 requests are queries, want 220", queries)
	}
}

func TestRepeatShare(t *testing.T) {
	items := []item{
		{classQuery, 0}, {classReplay, 0}, {classQuery, 1}, {classQuery, 0},
		{classReplay, 0}, {classQuery, 0}, {classQuery, 2},
	}
	// Five queries, of which two repeat body 0.
	if got := repeatShare(items); got != 0.4 {
		t.Errorf("repeatShare = %g, want 0.4", got)
	}
	if got := repeatShare(nil); got != 0 {
		t.Errorf("repeatShare of nothing = %g", got)
	}
}

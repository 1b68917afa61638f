package sparse

import (
	"fmt"
	"slices"
	"testing"
)

// The workload generator pools its accumulators across frames: each frame
// is Reset, refilled, merged and sealed. These tests pin the reuse
// contract — Reset must leave no stale state observable through any reader
// of the sealed matrix, and a reset accumulator must keep growing and
// accumulating exactly like a fresh one.

// fillOp is one Add applied to a matrix under test.
type fillOp struct {
	src, dst int
	n        int64
}

func apply(t *testing.T, m *Acc, ops []fillOp) {
	t.Helper()
	for _, op := range ops {
		if err := m.Add(op.src, op.dst, op.n); err != nil {
			t.Fatalf("Add(%d,%d,%d): %v", op.src, op.dst, op.n, err)
		}
	}
}

func TestResetReuse(t *testing.T) {
	cases := []struct {
		name    string
		ranks   int
		first   []fillOp // filled, then Reset
		second  []fillOp // refilled after Reset
		entries []Entry  // expected contents after the second fill
		total   int64
	}{
		{
			name:  "stale entries do not leak into the refill",
			ranks: 8,
			first: []fillOp{{0, 1, 5}, {3, 2, 7}, {7, 7, 1}},
			second: []fillOp{
				{0, 1, 2}, // same cell as a stale entry: must read 2, not 7
				{4, 5, 9},
			},
			entries: []Entry{{Src: 0, Dst: 1, Count: 2}, {Src: 4, Dst: 5, Count: 9}},
			total:   11,
		},
		{
			name:    "refill can grow past the first fill",
			ranks:   6,
			first:   []fillOp{{1, 2, 3}},
			second:  []fillOp{{0, 1, 1}, {1, 2, 2}, {2, 3, 3}, {3, 4, 4}, {4, 5, 5}},
			entries: []Entry{{0, 1, 1}, {1, 2, 2}, {2, 3, 3}, {3, 4, 4}, {4, 5, 5}},
			total:   15,
		},
		{
			name:    "empty refill leaves an empty matrix",
			ranks:   4,
			first:   []fillOp{{0, 3, 10}, {3, 0, 10}},
			second:  nil,
			entries: []Entry{},
			total:   0,
		},
		{
			name:    "reset of an already-empty matrix is a no-op",
			ranks:   4,
			first:   nil,
			second:  []fillOp{{2, 2, 6}},
			entries: []Entry{{Src: 2, Dst: 2, Count: 6}},
			total:   6,
		},
		{
			name:    "zero-row ranks stay zero through reuse",
			ranks:   5,
			first:   []fillOp{{0, 1, 4}, {2, 3, 4}},
			second:  []fillOp{{0, 1, 8}},
			entries: []Entry{{Src: 0, Dst: 1, Count: 8}},
			total:   8,
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			acc := NewAcc(tc.ranks)
			apply(t, acc, tc.first)
			stale := acc.Seal()
			acc.Reset()

			empty := acc.Seal()
			if got := empty.NumNonZero(); got != 0 {
				t.Fatalf("NumNonZero after Reset = %d, want 0", got)
			}
			if got := empty.Total(); got != 0 {
				t.Fatalf("Total after Reset = %d, want 0", got)
			}
			if got := len(empty.Entries()); got != 0 {
				t.Fatalf("Entries after Reset = %d elements, want none", got)
			}

			apply(t, acc, tc.second)
			m := acc.Seal()
			// A matrix sealed before the Reset shares nothing with the
			// accumulator: the refill must not show through it.
			if !slices.Equal(stale.Entries(), opsEntries(tc.ranks, tc.first)) {
				t.Errorf("matrix sealed before Reset changed to %v", stale.Entries())
			}

			if got, want := len(m.Entries()), len(tc.entries); got != want {
				t.Fatalf("entries after refill = %v, want %v", m.Entries(), tc.entries)
			}
			for i, e := range m.Entries() {
				if e != tc.entries[i] {
					t.Errorf("entry %d = %+v, want %+v", i, e, tc.entries[i])
				}
			}
			if got := m.Total(); got != tc.total {
				t.Errorf("Total after refill = %d, want %d", got, tc.total)
			}
			// Every cell must match a fresh matrix given the same fill: the
			// reused storage is an optimisation, never an observable.
			freshAcc := NewAcc(tc.ranks)
			apply(t, freshAcc, tc.second)
			fresh := freshAcc.Seal()
			for src := 0; src < tc.ranks; src++ {
				if got, want := m.RowSum(src), fresh.RowSum(src); got != want {
					t.Errorf("RowSum(%d) = %d after reuse, fresh matrix has %d", src, got, want)
				}
				if got, want := m.ColSum(src), fresh.ColSum(src); got != want {
					t.Errorf("ColSum(%d) = %d after reuse, fresh matrix has %d", src, got, want)
				}
				for dst := 0; dst < tc.ranks; dst++ {
					if got, want := m.Get(src, dst), fresh.Get(src, dst); got != want {
						t.Errorf("Get(%d,%d) = %d after reuse, fresh matrix has %d", src, dst, got, want)
					}
				}
			}
		})
	}
}

// TestResetAccumulatorCycle mirrors the generator's actual pooling pattern:
// one partial accumulator is reset and refilled per frame, each frame
// merged into a per-frame aggregate with AddInto and sealed. Totals must
// match what independent per-frame matrices would produce.
func TestResetAccumulatorCycle(t *testing.T) {
	const ranks, frames = 6, 4
	partial := NewAcc(ranks)
	var got []string
	for f := 0; f < frames; f++ {
		partial.Reset()
		for src := 0; src < ranks; src++ {
			// A frame-dependent band: frame f moves f+1 particles from each
			// rank to its (f+1)-step neighbour.
			if err := partial.Add(src, (src+f+1)%ranks, int64(f+1)); err != nil {
				t.Fatal(err)
			}
		}
		acc := NewAcc(ranks)
		if err := partial.AddInto(acc); err != nil {
			t.Fatal(err)
		}
		agg := acc.Seal()
		got = append(got, fmt.Sprintf("frame=%d total=%d nnz=%d", f, agg.Total(), agg.NumNonZero()))
	}
	want := []string{
		"frame=0 total=6 nnz=6",
		"frame=1 total=12 nnz=6",
		"frame=2 total=18 nnz=6",
		"frame=3 total=24 nnz=6",
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("cycle %d: got %q, want %q", i, got[i], want[i])
		}
	}
}

// opsEntries is the sorted entry list a fresh fill of ops produces.
func opsEntries(ranks int, ops []fillOp) []Entry {
	acc := NewAcc(ranks)
	for _, op := range ops {
		_ = acc.Add(op.src, op.dst, op.n)
	}
	return acc.Seal().Entries()
}

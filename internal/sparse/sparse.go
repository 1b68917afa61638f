// Package sparse provides the sparse integer matrices backing the Dynamic
// Workload Generator's Communication matrix P_comm (§II-A): an R×R×T array
// counting particles moving between processor pairs per sampling interval.
// For realistic R (thousands of ranks) the per-interval matrix is extremely
// sparse — particles cross between a handful of neighbouring processors —
// so dense R×R storage (≈560 MB per frame at R=8352 with int64) is replaced
// by a hash map over occupied (src, dst) pairs.
package sparse

import (
	"fmt"
	"sort"
)

// Matrix is a sparse R×R count matrix. The zero value is not usable; create
// instances with NewMatrix.
type Matrix struct {
	ranks int
	m     map[uint64]int64
}

// NewMatrix returns an empty ranks×ranks matrix.
func NewMatrix(ranks int) *Matrix {
	return &Matrix{ranks: ranks, m: make(map[uint64]int64)}
}

// Ranks returns the matrix dimension R.
func (m *Matrix) Ranks() int { return m.ranks }

func (m *Matrix) key(src, dst int) (uint64, error) {
	if src < 0 || src >= m.ranks || dst < 0 || dst >= m.ranks {
		return 0, fmt.Errorf("sparse: index (%d,%d) out of range for %d ranks", src, dst, m.ranks)
	}
	return uint64(src)<<32 | uint64(uint32(dst)), nil
}

// Add increases entry (src, dst) by n.
func (m *Matrix) Add(src, dst int, n int64) error {
	k, err := m.key(src, dst)
	if err != nil {
		return err
	}
	m.m[k] += n
	if m.m[k] == 0 {
		delete(m.m, k)
	}
	return nil
}

// Reset clears every entry, keeping the allocated bucket storage so the
// matrix can be refilled without churning the allocator — the workload
// generator pools its per-worker partial matrices across frames this way.
func (m *Matrix) Reset() { clear(m.m) }

// Get returns entry (src, dst); absent entries are zero.
func (m *Matrix) Get(src, dst int) int64 {
	k, err := m.key(src, dst)
	if err != nil {
		return 0
	}
	return m.m[k]
}

// NumNonZero returns the number of non-zero entries.
func (m *Matrix) NumNonZero() int { return len(m.m) }

// Total returns the sum of all entries — the total number of particles in
// flight during the interval.
func (m *Matrix) Total() int64 {
	var t int64
	for _, v := range m.m {
		t += v
	}
	return t
}

// Entry is one non-zero matrix element.
type Entry struct {
	Src, Dst int
	Count    int64
}

// Entries returns the non-zero entries sorted by (src, dst) for
// deterministic iteration and output.
func (m *Matrix) Entries() []Entry {
	es := make([]Entry, 0, len(m.m))
	for k, v := range m.m {
		es = append(es, Entry{Src: int(k >> 32), Dst: int(uint32(k)), Count: v})
	}
	sort.Slice(es, func(a, b int) bool {
		if es[a].Src != es[b].Src {
			return es[a].Src < es[b].Src
		}
		return es[a].Dst < es[b].Dst
	})
	return es
}

// MaxOver returns the largest of floor and f(e) over the non-zero entries
// e. It reads the map directly, without allocating or sorting, so entries
// arrive in no particular order. With floor ≥ +0 the result still does not
// depend on that order: the fold keeps the first of equal values (strict >),
// a NaN f(e) never wins, and the only equal values with different bits,
// -0 and +0, never beat such a floor. Callers that need the sorted order,
// for output or order-dependent folds, use Entries.
func (m *Matrix) MaxOver(floor float64, f func(Entry) float64) float64 {
	best := floor
	for k, v := range m.m {
		if t := f(Entry{Src: int(k >> 32), Dst: int(uint32(k)), Count: v}); t > best {
			best = t
		}
	}
	return best
}

// RowSum returns the total outgoing count of rank src.
func (m *Matrix) RowSum(src int) int64 {
	var t int64
	for k, v := range m.m {
		if int(k>>32) == src {
			t += v
		}
	}
	return t
}

// ColSum returns the total incoming count of rank dst.
func (m *Matrix) ColSum(dst int) int64 {
	var t int64
	for k, v := range m.m {
		if int(uint32(k)) == dst {
			t += v
		}
	}
	return t
}

// AddInto accumulates m into dst (dst += m); dimensions must match.
func (m *Matrix) AddInto(dst *Matrix) error {
	if dst.ranks != m.ranks {
		return fmt.Errorf("sparse: dimension mismatch %d vs %d", dst.ranks, m.ranks)
	}
	for k, v := range m.m {
		dst.m[k] += v
		if dst.m[k] == 0 {
			delete(dst.m, k)
		}
	}
	return nil
}

// Series is a time series of sparse matrices — the full Communication
// matrix P_comm[i][j][k] with k indexing sampling intervals.
type Series struct {
	ranks  int
	frames []*Matrix
}

// NewSeries returns an empty series for ranks processors.
func NewSeries(ranks int) *Series { return &Series{ranks: ranks} }

// Ranks returns R.
func (s *Series) Ranks() int { return s.ranks }

// Frames returns the number of intervals recorded.
func (s *Series) Frames() int { return len(s.frames) }

// Append adds a new empty interval matrix and returns it.
func (s *Series) Append() *Matrix {
	m := NewMatrix(s.ranks)
	s.frames = append(s.frames, m)
	return m
}

// At returns the matrix of interval k.
func (s *Series) At(k int) *Matrix { return s.frames[k] }

// TotalPerFrame returns the total particle transfer count of every interval.
func (s *Series) TotalPerFrame() []int64 {
	out := make([]int64, len(s.frames))
	for i, m := range s.frames {
		out[i] = m.Total()
	}
	return out
}

// Aggregate sums the whole series into one matrix.
func (s *Series) Aggregate() *Matrix {
	agg := NewMatrix(s.ranks)
	for _, m := range s.frames {
		_ = m.AddInto(agg) // dimensions match by construction
	}
	return agg
}

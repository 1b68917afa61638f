// Package sparse provides the sparse integer matrices backing the Dynamic
// Workload Generator's Communication matrix P_comm (§II-A): an R×R×T array
// counting particles moving between processor pairs per sampling interval.
// For realistic R (thousands of ranks) the per-interval matrix is extremely
// sparse — particles cross between a handful of neighbouring processors —
// so dense R×R storage (≈560 MB per frame at R=8352 with int64) is replaced
// by storage over the occupied (src, dst) pairs only.
//
// A frame has two forms, each its own type. An Acc is the mutable
// accumulator a frame is filled into: a hash map over occupied pairs that
// takes Adds in any order and is Reset and refilled frame after frame.
// Sealing it yields a Matrix: the same entries as sorted parallel key and
// count slices (16 B per entry against about 29 B in the map), immutable,
// and the only form a finished workload keeps.
package sparse

import (
	"fmt"
	"slices"
)

// key packs (src, dst) so that ascending keys are (src, dst) row-major
// order.
func key(src, dst int) uint64 { return uint64(src)<<32 | uint64(uint32(dst)) }

func unpack(k uint64) (src, dst int) { return int(k >> 32), int(uint32(k)) }

func checkIndex(ranks, src, dst int) error {
	if src < 0 || src >= ranks || dst < 0 || dst >= ranks {
		return fmt.Errorf("sparse: index (%d,%d) out of range for %d ranks", src, dst, ranks)
	}
	return nil
}

// Acc is the mutable R×R count accumulator one frame is filled into. The
// zero value is not usable; create instances with NewAcc.
type Acc struct {
	ranks int
	m     map[uint64]int64
}

// NewAcc returns an empty ranks×ranks accumulator.
func NewAcc(ranks int) *Acc {
	return &Acc{ranks: ranks, m: make(map[uint64]int64)}
}

// Add increases entry (src, dst) by n. An entry whose sum returns to zero
// is dropped, so only non-zero entries are ever sealed.
func (a *Acc) Add(src, dst int, n int64) error {
	if err := checkIndex(a.ranks, src, dst); err != nil {
		return err
	}
	a.add(key(src, dst), n)
	return nil
}

func (a *Acc) add(k uint64, n int64) {
	if v := a.m[k] + n; v != 0 {
		a.m[k] = v
	} else {
		delete(a.m, k)
	}
}

// Reset clears every entry, keeping the allocated bucket storage so the
// accumulator can be refilled without churning the allocator — the
// workload generator and reader fill every frame into pooled accumulators
// this way.
func (a *Acc) Reset() { clear(a.m) }

// AddInto accumulates a into dst (dst += a); dimensions must match.
func (a *Acc) AddInto(dst *Acc) error {
	if dst.ranks != a.ranks {
		return fmt.Errorf("sparse: dimension mismatch %d vs %d", dst.ranks, a.ranks)
	}
	for k, v := range a.m {
		dst.add(k, v)
	}
	return nil
}

// Seal returns the accumulated entries as an immutable Matrix sorted by
// (src, dst). The accumulator is left as it was, free to be Reset and
// refilled; the matrix shares no storage with it.
func (a *Acc) Seal() *Matrix {
	m := &Matrix{ranks: a.ranks}
	if len(a.m) == 0 {
		return m
	}
	m.keys = make([]uint64, 0, len(a.m))
	for k := range a.m {
		m.keys = append(m.keys, k)
	}
	slices.Sort(m.keys)
	m.counts = make([]int64, len(m.keys))
	for i, k := range m.keys {
		m.counts[i] = a.m[k]
	}
	return m
}

// Matrix is a sealed sparse R×R count matrix: the non-zero entries of one
// frame sorted by (src, dst), held as parallel key and count slices. It is
// immutable; build one by filling an Acc and sealing it.
type Matrix struct {
	ranks  int
	keys   []uint64 // strictly ascending packed (src, dst)
	counts []int64  // counts[i] is the non-zero count at keys[i]
}

// Ranks returns the matrix dimension R.
func (m *Matrix) Ranks() int { return m.ranks }

// Get returns entry (src, dst); absent and out-of-range entries are zero.
func (m *Matrix) Get(src, dst int) int64 {
	if checkIndex(m.ranks, src, dst) != nil {
		return 0
	}
	if i, ok := slices.BinarySearch(m.keys, key(src, dst)); ok {
		return m.counts[i]
	}
	return 0
}

// NumNonZero returns the number of non-zero entries.
func (m *Matrix) NumNonZero() int { return len(m.keys) }

// Total returns the sum of all entries — the total number of particles in
// flight during the interval.
func (m *Matrix) Total() int64 {
	var t int64
	for _, v := range m.counts {
		t += v
	}
	return t
}

// Entry is one non-zero matrix element.
type Entry struct {
	Src, Dst int
	Count    int64
}

// Entries returns the non-zero entries in (src, dst) order — the order
// they are stored in, so nothing is sorted.
func (m *Matrix) Entries() []Entry {
	es := make([]Entry, len(m.keys))
	for i, k := range m.keys {
		src, dst := unpack(k)
		es[i] = Entry{Src: src, Dst: dst, Count: m.counts[i]}
	}
	return es
}

// MaxOver returns the largest of floor and f(e) over the non-zero entries
// e, folded in (src, dst) order without allocating. The fold keeps the
// first of equal values (strict >) and a NaN f(e) never wins.
func (m *Matrix) MaxOver(floor float64, f func(Entry) float64) float64 {
	best := floor
	for i, k := range m.keys {
		src, dst := unpack(k)
		if t := f(Entry{Src: src, Dst: dst, Count: m.counts[i]}); t > best {
			best = t
		}
	}
	return best
}

// RowSum returns the total outgoing count of rank src.
func (m *Matrix) RowSum(src int) int64 {
	if src < 0 || src >= m.ranks {
		return 0
	}
	lo, _ := slices.BinarySearch(m.keys, key(src, 0))
	var t int64
	for i := lo; i < len(m.keys) && int(m.keys[i]>>32) == src; i++ {
		t += m.counts[i]
	}
	return t
}

// ColSum returns the total incoming count of rank dst.
func (m *Matrix) ColSum(dst int) int64 {
	var t int64
	for i, k := range m.keys {
		if int(uint32(k)) == dst {
			t += m.counts[i]
		}
	}
	return t
}

// Series is a time series of sealed matrices — the full Communication
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

// Append records m as the next interval. A matrix of another dimension is
// a programming error and panics.
func (s *Series) Append(m *Matrix) {
	if m.ranks != s.ranks {
		panic(fmt.Sprintf("sparse: appending a %d-rank matrix to a %d-rank series", m.ranks, s.ranks))
	}
	s.frames = append(s.frames, m)
}

// At returns the matrix of interval k.
func (s *Series) At(k int) *Matrix { return s.frames[k] }

// NumNonZero returns the number of non-zero entries over every interval —
// with 16 B per sealed entry, the series' resident size.
func (s *Series) NumNonZero() int {
	n := 0
	for _, m := range s.frames {
		n += len(m.keys)
	}
	return n
}

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
	agg := NewAcc(s.ranks)
	for _, m := range s.frames {
		for i, k := range m.keys {
			agg.add(k, m.counts[i])
		}
	}
	return agg.Seal()
}

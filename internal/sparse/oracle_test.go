package sparse

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// oracleMatrix is the map-backed matrix workloads held before frames were
// sealed: every reader walks the map, and Entries sorts a fresh copy. It is
// the reference the sealed Matrix must agree with.
type oracleMatrix struct {
	ranks int
	m     map[uint64]int64
}

func newOracle(ranks int) *oracleMatrix {
	return &oracleMatrix{ranks: ranks, m: make(map[uint64]int64)}
}

func (o *oracleMatrix) add(src, dst int, n int64) {
	k := uint64(src)<<32 | uint64(uint32(dst))
	o.m[k] += n
	if o.m[k] == 0 {
		delete(o.m, k)
	}
}

func (o *oracleMatrix) get(src, dst int) int64 {
	if src < 0 || src >= o.ranks || dst < 0 || dst >= o.ranks {
		return 0
	}
	return o.m[uint64(src)<<32|uint64(uint32(dst))]
}

func (o *oracleMatrix) total() int64 {
	var t int64
	for _, v := range o.m {
		t += v
	}
	return t
}

func (o *oracleMatrix) entries() []Entry {
	es := make([]Entry, 0, len(o.m))
	for k, v := range o.m {
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

// maxOver is the unordered map fold the simulator's comm barrier used.
func (o *oracleMatrix) maxOver(floor float64, f func(Entry) float64) float64 {
	best := floor
	for k, v := range o.m {
		if t := f(Entry{Src: int(k >> 32), Dst: int(uint32(k)), Count: v}); t > best {
			best = t
		}
	}
	return best
}

func (o *oracleMatrix) rowSum(src int) int64 {
	var t int64
	for k, v := range o.m {
		if int(k>>32) == src {
			t += v
		}
	}
	return t
}

func (o *oracleMatrix) colSum(dst int) int64 {
	var t int64
	for k, v := range o.m {
		if int(uint32(k)) == dst {
			t += v
		}
	}
	return t
}

// TestSealedMatchesMapOracle feeds seeded random Add sequences — repeated
// cells, any order, sums that cancel back to zero — to both an accumulator
// and the map oracle, then checks every reader of the sealed frames and of
// their series aggregate against the oracle's.
func TestSealedMatchesMapOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(20210517))
	for trial := 0; trial < 40; trial++ {
		ranks := 1 + rng.Intn(24)
		frames := 1 + rng.Intn(4)
		series := NewSeries(ranks)
		agg := newOracle(ranks)
		acc := NewAcc(ranks)
		var oracles []*oracleMatrix
		for f := 0; f < frames; f++ {
			acc.Reset()
			o := newOracle(ranks)
			ops := rng.Intn(120)
			for i := 0; i < ops; i++ {
				src, dst := rng.Intn(ranks), rng.Intn(ranks)
				n := int64(rng.Intn(7) - 3)
				if rng.Intn(4) == 0 && o.get(src, dst) != 0 {
					n = -o.get(src, dst) // cancel the cell back to zero
				}
				if err := acc.Add(src, dst, n); err != nil {
					t.Fatal(err)
				}
				o.add(src, dst, n)
				agg.add(src, dst, n)
			}
			series.Append(acc.Seal())
			oracles = append(oracles, o)
		}
		for f, o := range oracles {
			checkAgainstOracle(t, series.At(f), o)
		}
		checkAgainstOracle(t, series.Aggregate(), agg)
		if t.Failed() {
			t.Fatalf("trial %d (ranks %d, frames %d) disagrees with the oracle", trial, ranks, frames)
		}
	}
}

func checkAgainstOracle(t *testing.T, m *Matrix, o *oracleMatrix) {
	t.Helper()
	if got, want := m.Entries(), o.entries(); !slices.Equal(got, want) {
		t.Errorf("Entries = %v, oracle %v", got, want)
	}
	if got, want := m.NumNonZero(), len(o.m); got != want {
		t.Errorf("NumNonZero = %d, oracle %d", got, want)
	}
	if got, want := m.Total(), o.total(); got != want {
		t.Errorf("Total = %d, oracle %d", got, want)
	}
	for src := -1; src <= o.ranks; src++ {
		if got, want := m.RowSum(src), o.rowSum(src); got != want {
			t.Errorf("RowSum(%d) = %d, oracle %d", src, got, want)
		}
		if got, want := m.ColSum(src), o.colSum(src); got != want {
			t.Errorf("ColSum(%d) = %d, oracle %d", src, got, want)
		}
		for dst := -1; dst <= o.ranks; dst++ {
			if got, want := m.Get(src, dst), o.get(src, dst); got != want {
				t.Errorf("Get(%d,%d) = %d, oracle %d", src, dst, got, want)
			}
		}
	}
	// The simulator's barrier term: count-scaled with a rank-dependent
	// tie-break, folded over a +0 floor and over one above most terms.
	f := func(e Entry) float64 { return float64(e.Count)*1.5 + float64(e.Src)/16 - float64(e.Dst)/64 }
	for _, floor := range []float64{0, 2.5} {
		if got, want := m.MaxOver(floor, f), o.maxOver(floor, f); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("MaxOver(%v) = %v, oracle %v", floor, got, want)
		}
	}
}

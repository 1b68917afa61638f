package sparse

import (
	"math"
	"testing"
	"testing/quick"
)

func TestAddGet(t *testing.T) {
	a := NewAcc(4)
	if err := a.Add(1, 2, 5); err != nil {
		t.Fatal(err)
	}
	if err := a.Add(1, 2, 3); err != nil {
		t.Fatal(err)
	}
	m := a.Seal()
	if got := m.Get(1, 2); got != 8 {
		t.Errorf("Get = %d, want 8", got)
	}
	if got := m.Get(2, 1); got != 0 {
		t.Errorf("Get(2,1) = %d, want 0", got)
	}
	if m.Ranks() != 4 {
		t.Errorf("Ranks = %d", m.Ranks())
	}
}

func TestAddBounds(t *testing.T) {
	a := NewAcc(4)
	for _, c := range [][2]int{{-1, 0}, {0, -1}, {4, 0}, {0, 4}} {
		if err := a.Add(c[0], c[1], 1); err == nil {
			t.Errorf("Add(%d,%d) accepted", c[0], c[1])
		}
	}
	if got := a.Seal().Get(-1, 0); got != 0 {
		t.Errorf("out-of-range Get = %d", got)
	}
}

func TestZeroEntriesPruned(t *testing.T) {
	a := NewAcc(4)
	_ = a.Add(0, 1, 5)
	_ = a.Add(0, 1, -5)
	if m := a.Seal(); m.NumNonZero() != 0 || len(m.Entries()) != 0 {
		t.Errorf("sealed matrix keeps %d entries after cancelling, want 0", m.NumNonZero())
	}
}

func TestEntriesSorted(t *testing.T) {
	a := NewAcc(8)
	_ = a.Add(5, 1, 1)
	_ = a.Add(0, 7, 2)
	_ = a.Add(5, 0, 3)
	_ = a.Add(0, 2, 4)
	es := a.Seal().Entries()
	if len(es) != 4 {
		t.Fatalf("Entries len = %d", len(es))
	}
	for i := 1; i < len(es); i++ {
		a, b := es[i-1], es[i]
		if a.Src > b.Src || (a.Src == b.Src && a.Dst >= b.Dst) {
			t.Fatalf("entries not sorted: %+v before %+v", a, b)
		}
	}
}

func TestRowColSumsAndTotal(t *testing.T) {
	a := NewAcc(4)
	_ = a.Add(0, 1, 3)
	_ = a.Add(0, 2, 4)
	_ = a.Add(3, 0, 5)
	m := a.Seal()
	if got := m.RowSum(0); got != 7 {
		t.Errorf("RowSum(0) = %d", got)
	}
	if got := m.ColSum(0); got != 5 {
		t.Errorf("ColSum(0) = %d", got)
	}
	if got := m.Total(); got != 12 {
		t.Errorf("Total = %d", got)
	}
}

func TestAddInto(t *testing.T) {
	a, b := NewAcc(4), NewAcc(4)
	_ = a.Add(0, 1, 1)
	_ = b.Add(0, 1, 2)
	_ = b.Add(2, 3, 7)
	if err := b.AddInto(a); err != nil {
		t.Fatal(err)
	}
	if m := a.Seal(); m.Get(0, 1) != 3 || m.Get(2, 3) != 7 {
		t.Errorf("AddInto result wrong: %v", m.Entries())
	}
	if err := NewAcc(3).AddInto(a); err == nil {
		t.Error("dimension mismatch accepted")
	}
}

func TestSeries(t *testing.T) {
	s := NewSeries(4)
	a := NewAcc(4)
	_ = a.Add(0, 1, 2)
	m0 := a.Seal()
	s.Append(m0)
	a.Reset()
	_ = a.Add(1, 0, 3)
	_ = a.Add(0, 1, 1)
	s.Append(a.Seal())
	if s.Frames() != 2 || s.Ranks() != 4 {
		t.Fatalf("Frames/Ranks = %d/%d", s.Frames(), s.Ranks())
	}
	totals := s.TotalPerFrame()
	if totals[0] != 2 || totals[1] != 4 {
		t.Errorf("TotalPerFrame = %v", totals)
	}
	agg := s.Aggregate()
	if agg.Get(0, 1) != 3 || agg.Get(1, 0) != 3 {
		t.Errorf("Aggregate wrong: %v", agg.Entries())
	}
	if s.At(0) != m0 {
		t.Error("At(0) is not the appended matrix")
	}
	if s.NumNonZero() != 3 {
		t.Errorf("NumNonZero = %d, want 3", s.NumNonZero())
	}
}

func TestTotalMatchesEntriesProperty(t *testing.T) {
	f := func(adds []struct {
		Src, Dst uint8
		N        int16
	}) bool {
		acc := NewAcc(256)
		for _, a := range adds {
			if err := acc.Add(int(a.Src), int(a.Dst), int64(a.N)); err != nil {
				return false
			}
		}
		m := acc.Seal()
		var sum int64
		for _, e := range m.Entries() {
			sum += e.Count
		}
		return sum == m.Total()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// MaxOver agrees bit for bit with the same max taken over the sorted
// entries, sees every entry exactly once, and allocates nothing.
func TestMaxOverMatchesSortedFold(t *testing.T) {
	acc := NewAcc(16)
	if got := acc.Seal().MaxOver(0.5, func(Entry) float64 { return 9 }); got != 0.5 {
		t.Errorf("empty matrix: MaxOver = %v, want the floor 0.5", got)
	}
	for i := 0; i < 40; i++ {
		_ = acc.Add((i*7)%16, (i*5+3)%16, int64(i%9+1))
	}
	m := acc.Seal()
	f := func(e Entry) float64 { return float64(e.Count)*1.5 + float64(e.Src)/16 - float64(e.Dst)/64 }
	for _, floor := range []float64{0, 3, 100} {
		want := floor
		for _, e := range m.Entries() {
			if t := f(e); t > want {
				want = t
			}
		}
		if got := m.MaxOver(floor, f); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("floor %v: MaxOver = %v, want %v", floor, got, want)
		}
	}
	seen := map[Entry]int{}
	m.MaxOver(0, func(e Entry) float64 { seen[e]++; return 0 })
	for _, e := range m.Entries() {
		if seen[e] != 1 {
			t.Errorf("entry %+v visited %d times", e, seen[e])
		}
	}
	if len(seen) != m.NumNonZero() {
		t.Errorf("visited %d distinct entries, matrix has %d", len(seen), m.NumNonZero())
	}
	// A NaN term never wins, and a +0 floor outranks -0 terms.
	if got := m.MaxOver(0, func(Entry) float64 { return math.NaN() }); got != 0 {
		t.Errorf("NaN terms: MaxOver = %v, want 0", got)
	}
	if got := m.MaxOver(0, func(Entry) float64 { return math.Copysign(0, -1) }); math.Signbit(got) {
		t.Error("a -0 term replaced the +0 floor")
	}
	if n := testing.AllocsPerRun(10, func() { m.MaxOver(0, f) }); n != 0 {
		t.Errorf("MaxOver allocated %v times per call", n)
	}
}

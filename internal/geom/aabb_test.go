package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBoxNormalisesCorners(t *testing.T) {
	b := Box(V(1, 0, 5), V(0, 2, 3))
	if b.Lo != V(0, 0, 3) || b.Hi != V(1, 2, 5) {
		t.Errorf("Box = %v", b)
	}
}

func TestEmptyBox(t *testing.T) {
	e := EmptyBox()
	if !e.Empty() {
		t.Error("EmptyBox is not empty")
	}
	if e.Contains(V(0, 0, 0)) {
		t.Error("empty box contains a point")
	}
	if e.Volume() != 0 {
		t.Errorf("empty box volume = %v", e.Volume())
	}
	b := Box(V(0, 0, 0), V(1, 1, 1))
	if got := e.Union(b); got != b {
		t.Errorf("empty.Union(b) = %v, want %v", got, b)
	}
	if got := b.Union(e); got != b {
		t.Errorf("b.Union(empty) = %v, want %v", got, b)
	}
}

func TestContainsHalfOpen(t *testing.T) {
	b := Box(V(0, 0, 0), V(1, 1, 1))
	cases := []struct {
		p    Vec3
		want bool
	}{
		{V(0, 0, 0), true},  // low corner included
		{V(1, 1, 1), false}, // high corner excluded
		{V(0.5, 0.5, 0.5), true},
		{V(1, 0.5, 0.5), false}, // on high x face
		{V(-0.001, 0.5, 0.5), false},
	}
	for _, c := range cases {
		if got := b.Contains(c.p); got != c.want {
			t.Errorf("Contains(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if !b.ContainsClosed(V(1, 1, 1)) {
		t.Error("ContainsClosed excludes high corner")
	}
}

func TestExtentCenterVolume(t *testing.T) {
	b := Box(V(0, 0, 0), V(2, 3, 4))
	if b.Extent() != V(2, 3, 4) {
		t.Errorf("Extent = %v", b.Extent())
	}
	if b.Center() != V(1, 1.5, 2) {
		t.Errorf("Center = %v", b.Center())
	}
	if b.Volume() != 24 {
		t.Errorf("Volume = %v", b.Volume())
	}
}

func TestLongestAxis(t *testing.T) {
	cases := []struct {
		hi   Vec3
		want int
	}{
		{V(3, 1, 1), 0},
		{V(1, 3, 1), 1},
		{V(1, 1, 3), 2},
		{V(2, 2, 1), 0}, // tie resolves low
		{V(1, 2, 2), 1},
	}
	for _, c := range cases {
		b := Box(V(0, 0, 0), c.hi)
		if got := b.LongestAxis(); got != c.want {
			t.Errorf("LongestAxis(%v) = %d, want %d", c.hi, got, c.want)
		}
	}
	b := Box(V(0, 0, 0), V(1, 5, 2))
	if got := b.MaxExtent(); got != 5 {
		t.Errorf("MaxExtent = %v", got)
	}
}

func TestIntersects(t *testing.T) {
	a := Box(V(0, 0, 0), V(1, 1, 1))
	b := Box(V(0.5, 0.5, 0.5), V(2, 2, 2))
	c := Box(V(2, 2, 2), V(3, 3, 3))
	if !a.Intersects(b) || !b.Intersects(a) {
		t.Error("overlapping boxes do not intersect")
	}
	if a.Intersects(c) {
		t.Error("disjoint boxes intersect")
	}
	// touching faces count (closed-box semantics)
	d := Box(V(1, 0, 0), V(2, 1, 1))
	if !a.Intersects(d) {
		t.Error("face-touching boxes do not intersect")
	}
	if a.Intersects(EmptyBox()) {
		t.Error("box intersects the empty box")
	}
}

func TestIntersectsSphere(t *testing.T) {
	b := Box(V(0, 0, 0), V(1, 1, 1))
	cases := []struct {
		c    Vec3
		r    float64
		want bool
	}{
		{V(0.5, 0.5, 0.5), 0.1, true}, // inside
		{V(2, 0.5, 0.5), 1.0, true},   // touches face
		{V(2, 0.5, 0.5), 0.9, false},  // misses face
		{V(2, 2, 2), 1.8, true},       // reaches corner (dist = sqrt(3) ≈ 1.732)
		{V(2, 2, 2), 1.7, false},      // misses corner
		{V(0.5, 0.5, 0.5), -1, false}, // negative radius
	}
	for _, c := range cases {
		if got := b.IntersectsSphere(c.c, c.r); got != c.want {
			t.Errorf("IntersectsSphere(%v, %v) = %v, want %v", c.c, c.r, got, c.want)
		}
	}
}

func TestSplitAt(t *testing.T) {
	b := Box(V(0, 0, 0), V(4, 2, 2))
	lo, hi := b.SplitAt(0, 1.5)
	if lo.Hi.X != 1.5 || hi.Lo.X != 1.5 {
		t.Errorf("SplitAt: lo=%v hi=%v", lo, hi)
	}
	if lo.Volume()+hi.Volume() != b.Volume() {
		t.Errorf("split volumes %v + %v != %v", lo.Volume(), hi.Volume(), b.Volume())
	}
}

func TestBoundingBox(t *testing.T) {
	pts := []Vec3{V(1, 2, 3), V(-1, 5, 0), V(0, 0, 10)}
	b := BoundingBox(pts)
	if b.Lo != V(-1, 0, 0) || b.Hi != V(1, 5, 10) {
		t.Errorf("BoundingBox = %v", b)
	}
	if !BoundingBox(nil).Empty() {
		t.Error("BoundingBox(nil) is not empty")
	}
}

func TestUnionCommutativeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	rv := func() Vec3 { return V(rng.Float64()*10-5, rng.Float64()*10-5, rng.Float64()*10-5) }
	for i := 0; i < 200; i++ {
		a, b := Box(rv(), rv()), Box(rv(), rv())
		if a.Union(b) != b.Union(a) {
			t.Fatalf("Union not commutative for %v, %v", a, b)
		}
		u := a.Union(b)
		for _, p := range []Vec3{a.Lo, a.Hi, b.Lo, b.Hi} {
			if !u.ContainsClosed(p) {
				t.Fatalf("union %v does not contain corner %v", u, p)
			}
		}
	}
}

func TestExtendContainsProperty(t *testing.T) {
	f := func(px, py, pz float64) bool {
		b := EmptyBox().Extend(V(px, py, pz))
		return b.ContainsClosed(V(px, py, pz))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTileBoundsSkipsNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	pos := []Vec3{V(nan, 0, 0), V(1, 2, 3), V(inf, 0, 0), V(-1, 5, 0), V(0, -inf, 0)}
	for _, ids := range [][]int32{{0, 1, 2, 3, 4}, {1, 0, 3}, {3, 4, 1, 2}} {
		if got, want := TileBounds(pos, ids), Box(V(-1, 2, 0), V(1, 5, 3)); got != want {
			t.Errorf("TileBounds(%v) = %v, want %v", ids, got, want)
		}
	}
	if got := TileBounds(pos, []int32{0, 2, 4}); !got.Empty() {
		t.Errorf("all-non-finite tile bounds %v, want empty", got)
	}
}

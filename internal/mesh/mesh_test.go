package mesh

import (
	"math"
	"testing"

	"picpredict/internal/geom"
)

func unitDomain() geom.AABB { return geom.Box(geom.V(0, 0, 0), geom.V(1, 1, 1)) }

func TestNewValidation(t *testing.T) {
	if _, err := New(unitDomain(), 2, 2, 2, 0); err == nil {
		t.Error("N=0 accepted")
	}
	if _, err := New(unitDomain(), 0, 2, 2, 4); err == nil {
		t.Error("ex=0 accepted")
	}
	if _, err := New(geom.EmptyBox(), 2, 2, 2, 4); err == nil {
		t.Error("empty domain accepted")
	}
}

func TestMeshCounts(t *testing.T) {
	m, err := New(unitDomain(), 3, 4, 5, 6)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.NumElements(); got != 60 {
		t.Errorf("NumElements = %d", got)
	}
	if got := m.NumGridPoints(); got != 60*216 {
		t.Errorf("NumGridPoints = %d", got)
	}
	if m.Domain() != unitDomain() {
		t.Errorf("Domain = %v", m.Domain())
	}
}

func TestElementAt(t *testing.T) {
	m, err := New(unitDomain(), 4, 4, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	id := m.ElementAt(geom.V(0.3, 0.7, 0.5))
	if id != m.Elements.Index(1, 2, 0) {
		t.Errorf("ElementAt = %d", id)
	}
	if got := m.ElementAt(geom.V(-1, 0, 0)); got != -1 {
		t.Errorf("out-of-domain ElementAt = %d", got)
	}
}

// TestHome: Home is ElementAt of the position clamped onto the closed
// domain, so it is never negative — also on the high face of a 49×49 unit
// mesh, where lo + d·n rounds below 1, and for NaN coordinates.
func TestHome(t *testing.T) {
	m, err := New(geom.Box(geom.V(0, 0, 0), geom.V(1, 1, 0.01)), 49, 49, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	g := m.Elements
	for _, c := range []struct {
		p    geom.Vec3
		want int
	}{
		{geom.V(0.3, 0.7, 0.005), m.ElementAt(geom.V(0.3, 0.7, 0.005))},
		{geom.V(1, 0.5, 0.005), g.Index(48, 24, 0)},
		{geom.V(1.2, 0.5, 0.005), g.Index(48, 24, 0)},
		{geom.V(-0.1, 1, 0.02), g.Index(0, 48, 0)},
		{geom.V(math.NaN(), 0.5, 0.005), g.Index(0, 24, 0)},
		{geom.V(math.Inf(1), math.Inf(-1), 0.005), g.Index(48, 0, 0)},
	} {
		if got := m.Home(c.p); got != c.want {
			t.Errorf("Home(%v) = %d, want %d", c.p, got, c.want)
		}
	}
}

func TestElementsInSphereMatchesBoxes(t *testing.T) {
	m, err := New(unitDomain(), 8, 8, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	c, r := geom.V(0.41, 0.53, 0.12), 0.2
	got := map[int]bool{}
	for _, e := range m.ElementsInSphere(nil, c, r) {
		got[e] = true
	}
	for e := 0; e < m.NumElements(); e++ {
		want := m.ElementBox(e).IntersectsSphere(c, r)
		if got[e] != want {
			t.Errorf("element %d: got %v want %v", e, got[e], want)
		}
	}
}

package mesh

import (
	"testing"

	"picpredict/internal/geom"
)

func mustMesh(t *testing.T, ex, ey, ez int) *Mesh {
	t.Helper()
	m, err := New(geom.Box(geom.V(0, 0, 0), geom.V(float64(ex), float64(ey), float64(ez))), ex, ey, ez, 5)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// rankBox is the bounding box of rank r's elements (empty for a rank that
// owns none).
func rankBox(m *Mesh, d *Decomposition, r int) geom.AABB {
	box := geom.EmptyBox()
	for _, e := range d.ElementsOf[r] {
		box = box.Union(m.ElementBox(e))
	}
	return box
}

// ranksInSphere is the conservative box-level ghost query: every rank whose
// element bounding box intersects the ball (c, radius).
func ranksInSphere(m *Mesh, d *Decomposition, c geom.Vec3, radius float64) []int {
	var out []int
	for r := 0; r < d.Ranks; r++ {
		if rankBox(m, d, r).IntersectsSphere(c, radius) {
			out = append(out, r)
		}
	}
	return out
}

func TestDecomposeValidation(t *testing.T) {
	m := mustMesh(t, 4, 4, 1)
	if _, err := Decompose(m, 0); err == nil {
		t.Error("R=0 accepted")
	}
	if _, err := Decompose(m, -3); err == nil {
		t.Error("R<0 accepted")
	}
}

func TestDecomposeCoversAllElementsOnce(t *testing.T) {
	m := mustMesh(t, 6, 5, 4)
	for _, ranks := range []int{1, 2, 3, 7, 16, 120} {
		d, err := Decompose(m, ranks)
		if err != nil {
			t.Fatal(err)
		}
		seen := make([]bool, m.NumElements())
		for r := 0; r < ranks; r++ {
			for _, e := range d.ElementsOf[r] {
				if seen[e] {
					t.Fatalf("R=%d: element %d assigned twice", ranks, e)
				}
				seen[e] = true
				if d.Owner[e] != r {
					t.Fatalf("R=%d: Owner[%d]=%d but listed under %d", ranks, e, d.Owner[e], r)
				}
			}
		}
		for e, s := range seen {
			if !s {
				t.Fatalf("R=%d: element %d unassigned", ranks, e)
			}
		}
	}
}

func TestDecomposeBalance(t *testing.T) {
	m := mustMesh(t, 8, 8, 2) // 128 elements
	for _, ranks := range []int{2, 4, 8, 16, 32} {
		d, err := Decompose(m, ranks)
		if err != nil {
			t.Fatal(err)
		}
		want := m.NumElements() / ranks
		for r := 0; r < ranks; r++ {
			n := d.NumElementsOf(r)
			if n < want-1 || n > want+1 {
				t.Errorf("R=%d rank %d owns %d elements, want ≈%d", ranks, r, n, want)
			}
		}
		if imb := d.Imbalance(); imb > 1.1 {
			t.Errorf("R=%d imbalance %v too high", ranks, imb)
		}
	}
}

func TestDecomposeMoreRanksThanElements(t *testing.T) {
	m := mustMesh(t, 2, 2, 1) // 4 elements
	d, err := Decompose(m, 9)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for r := 0; r < 9; r++ {
		total += d.NumElementsOf(r)
	}
	if total != 4 {
		t.Errorf("total elements assigned = %d", total)
	}
	// Empty ranks never match sphere queries.
	hits := NewSphereOwners(m, d).Ranks(nil, geom.V(1, 1, 0.5), 100, -1)
	nonEmpty := 0
	for r := 0; r < 9; r++ {
		if d.NumElementsOf(r) > 0 {
			nonEmpty++
		}
	}
	if len(hits) != nonEmpty {
		t.Errorf("sphere hit %d ranks, want %d non-empty ranks", len(hits), nonEmpty)
	}
}

func TestDecomposeSpatialCompactness(t *testing.T) {
	// With a 2D 8x8 mesh over 4 ranks, recursive bisection should produce
	// four quadrant-like blocks: each rank box should cover ~1/4 the domain.
	m := mustMesh(t, 8, 8, 1)
	d, err := Decompose(m, 4)
	if err != nil {
		t.Fatal(err)
	}
	domVol := m.Domain().Volume()
	for r := 0; r < 4; r++ {
		frac := rankBox(m, d, r).Volume() / domVol
		if frac > 0.30 {
			t.Errorf("rank %d box covers %.0f%% of domain; partition not compact", r, frac*100)
		}
	}
}

func TestDecomposeDeterminism(t *testing.T) {
	m := mustMesh(t, 5, 7, 3)
	a, err := Decompose(m, 11)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Decompose(m, 11)
	if err != nil {
		t.Fatal(err)
	}
	for e := range a.Owner {
		if a.Owner[e] != b.Owner[e] {
			t.Fatalf("non-deterministic ownership at element %d", e)
		}
	}
}

func TestRanksInSphereExclude(t *testing.T) {
	m := mustMesh(t, 4, 4, 1)
	d, err := Decompose(m, 4)
	if err != nil {
		t.Fatal(err)
	}
	q := NewSphereOwners(m, d)
	c := m.Domain().Center()
	all := q.Ranks(nil, c, 10, -1)
	if len(all) != 4 {
		t.Fatalf("big sphere hit %d ranks, want 4", len(all))
	}
	excl := q.Ranks(nil, c, 10, 2)
	if len(excl) != 3 {
		t.Fatalf("excluded query hit %d ranks, want 3", len(excl))
	}
	for _, r := range excl {
		if r == 2 {
			t.Error("excluded rank returned")
		}
	}
}

func TestImbalanceEdgeCases(t *testing.T) {
	m := mustMesh(t, 4, 1, 1)
	d, err := Decompose(m, 4)
	if err != nil {
		t.Fatal(err)
	}
	if imb := d.Imbalance(); imb != 1 {
		t.Errorf("perfect split imbalance = %v, want 1", imb)
	}
}

func TestSphereOwnersMatchesRanksInSphere(t *testing.T) {
	m := mustMesh(t, 8, 8, 1)
	d, err := Decompose(m, 8)
	if err != nil {
		t.Fatal(err)
	}
	q := NewSphereOwners(m, d)
	c := geom.V(4, 4, 0.5)
	got := map[int]bool{}
	for _, r := range q.Ranks(nil, c, 2.5, -1) {
		if got[r] {
			t.Fatalf("duplicate rank %d", r)
		}
		got[r] = true
	}
	// Element-level query must be a subset of (conservative) box-level.
	boxLevel := map[int]bool{}
	for _, r := range ranksInSphere(m, d, c, 2.5) {
		boxLevel[r] = true
	}
	for r := range got {
		if !boxLevel[r] {
			t.Errorf("rank %d from element query missing in box query", r)
		}
	}
	// Exclusion honoured.
	home := d.RankOf(m.ElementAt(c))
	for _, r := range q.Ranks(nil, c, 2.5, home) {
		if r == home {
			t.Error("excluded rank returned")
		}
	}
	// Zero radius: nothing.
	if rs := q.Ranks(nil, c, 0, -1); len(rs) != 0 {
		t.Errorf("zero radius returned %v", rs)
	}
}

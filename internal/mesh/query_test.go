package mesh

import (
	"math/rand"
	"sort"
	"testing"

	"picpredict/internal/geom"
)

// bruteRanks recomputes a SphereOwners query by scanning every element.
func bruteRanks(m *Mesh, d *Decomposition, c geom.Vec3, radius float64, exclude int) []int {
	if radius <= 0 {
		return nil
	}
	seen := map[int]bool{}
	var out []int
	for e := 0; e < m.NumElements(); e++ {
		if !m.ElementBox(e).IntersectsSphere(c, radius) {
			continue
		}
		r := d.RankOf(e)
		if r == exclude || seen[r] {
			continue
		}
		seen[r] = true
		out = append(out, r)
	}
	return out
}

func sorted(s []int) []int {
	out := append([]int(nil), s...)
	sort.Ints(out)
	return out
}

func equalSets(a, b []int) bool {
	a, b = sorted(a), sorted(b)
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestSphereOwnersMatchesBruteForce(t *testing.T) {
	dom := geom.Box(geom.V(0, 0, 0), geom.V(1, 1, 0.25))
	m, err := New(dom, 8, 8, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	d, err := Decompose(m, 7)
	if err != nil {
		t.Fatal(err)
	}
	q := NewSphereOwners(m, d)
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 500; i++ {
		// Points straddle the domain: some inside, some beyond the faces —
		// a particle near the wall has a filter ball poking outside.
		c := geom.V(rng.Float64()*1.4-0.2, rng.Float64()*1.4-0.2, rng.Float64()*0.45-0.1)
		radius := rng.Float64() * 0.3
		exclude := rng.Intn(d.Ranks+1) - 1 // -1 .. Ranks-1
		got := q.Ranks(nil, c, radius, exclude)
		want := bruteRanks(m, d, c, radius, exclude)
		if !equalSets(got, want) {
			t.Fatalf("query %d: Ranks(%v, r=%g, excl=%d) = %v, brute force %v", i, c, radius, exclude, got, want)
		}
	}
}

func TestSphereOwnersDomainEdges(t *testing.T) {
	dom := geom.Box(geom.V(0, 0, 0), geom.V(1, 1, 1))
	m, err := New(dom, 4, 4, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	d, err := Decompose(m, 8)
	if err != nil {
		t.Fatal(err)
	}
	q := NewSphereOwners(m, d)

	cases := []struct {
		name   string
		c      geom.Vec3
		radius float64
	}{
		{"corner", geom.V(0, 0, 0), 0.1},
		{"opposite-corner", geom.V(1, 1, 1), 0.1},
		{"face-center", geom.V(0.5, 0, 0.5), 0.2},
		{"edge-midpoint", geom.V(0, 0.5, 0), 0.15},
		{"outside-near-face", geom.V(-0.05, 0.5, 0.5), 0.1},
		{"outside-out-of-reach", geom.V(-2, 0.5, 0.5), 0.5},
		{"ball-covers-domain", geom.V(0.5, 0.5, 0.5), 3},
	}
	for _, tc := range cases {
		got := q.Ranks(nil, tc.c, tc.radius, -1)
		want := bruteRanks(m, d, tc.c, tc.radius, -1)
		if !equalSets(got, want) {
			t.Errorf("%s: Ranks = %v, brute force %v", tc.name, got, want)
		}
		if tc.name == "ball-covers-domain" && len(got) != d.Ranks {
			t.Errorf("%s: ball covering the domain found %d of %d ranks", tc.name, len(got), d.Ranks)
		}
		if tc.name == "outside-out-of-reach" && len(got) != 0 {
			t.Errorf("%s: unreachable ball found ranks %v", tc.name, got)
		}
	}
}

func TestSphereOwnersZeroRadiusAndExclude(t *testing.T) {
	dom := geom.Box(geom.V(0, 0, 0), geom.V(1, 1, 1))
	m, err := New(dom, 4, 4, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	d, err := Decompose(m, 4)
	if err != nil {
		t.Fatal(err)
	}
	q := NewSphereOwners(m, d)
	if got := q.Ranks(nil, geom.V(0.5, 0.5, 0.5), 0, -1); len(got) != 0 {
		t.Errorf("zero radius returned ranks %v", got)
	}
	if got := q.Ranks(nil, geom.V(0.5, 0.5, 0.5), -0.1, -1); len(got) != 0 {
		t.Errorf("negative radius returned ranks %v", got)
	}
	// A ball covering everything, minus an excluded rank, returns the rest.
	all := q.Ranks(nil, geom.V(0.5, 0.5, 0.5), 2, -1)
	if len(all) != d.Ranks {
		t.Fatalf("covering ball found %d of %d ranks", len(all), d.Ranks)
	}
	got := q.Ranks(nil, geom.V(0.5, 0.5, 0.5), 2, 2)
	if len(got) != d.Ranks-1 {
		t.Errorf("exclusion left %d ranks, want %d", len(got), d.Ranks-1)
	}
	for _, r := range got {
		if r == 2 {
			t.Error("excluded rank 2 still reported")
		}
	}
	// dst is appended to, not clobbered.
	pre := []int{99}
	got = q.Ranks(pre, geom.V(0.125, 0.125, 0.5), 0.05, -1)
	if len(got) < 1 || got[0] != 99 {
		t.Errorf("Ranks clobbered dst prefix: %v", got)
	}
}

// quadDecomp builds an 8×8×1 unit-box mesh decomposed across 4 ranks; with
// recursive coordinate bisection the ranks tile the four quadrants, giving
// known rank boundaries at x=0.5 and y=0.5 to probe.
func quadDecomp(t *testing.T) (*Mesh, *Decomposition) {
	t.Helper()
	m, err := New(geom.Box(geom.V(0, 0, 0), geom.V(1, 1, 1)), 8, 8, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	d, err := Decompose(m, 4)
	if err != nil {
		t.Fatal(err)
	}
	return m, d
}

func homeOf(m *Mesh, d *Decomposition, p geom.Vec3) int {
	return d.RankOf(m.ElementAt(p))
}

func TestSphereOwnersInteriorParticleHasNoGhosts(t *testing.T) {
	m, d := quadDecomp(t)
	q := NewSphereOwners(m, d)
	// Deep inside a quadrant, with a filter radius smaller than the distance
	// to any rank boundary, no ghost is created.
	p := geom.V(0.25, 0.25, 0.5)
	home := homeOf(m, d, p)
	if got := q.Ranks(nil, p, 0.1, home); len(got) != 0 {
		t.Errorf("interior particle (radius 0.1) got ghosts on ranks %v", got)
	}
	if n := len(q.Ranks(nil, p, 0.1, home)); n != 0 {
		t.Errorf("Count = %d, want 0", n)
	}
}

func TestSphereOwnersRadiusCrossesRankBoundary(t *testing.T) {
	m, d := quadDecomp(t)
	q := NewSphereOwners(m, d)
	// A particle just left of the x=0.5 rank boundary. The neighbour across
	// the boundary must appear exactly when the filter ball reaches it.
	p := geom.V(0.45, 0.25, 0.5)
	home := homeOf(m, d, p)
	across := homeOf(m, d, geom.V(0.55, 0.25, 0.5))
	if across == home {
		t.Fatalf("test geometry broken: both sides of x=0.5 owned by rank %d", home)
	}

	ghosts := func(radius float64) []int {
		out := q.Ranks(nil, p, radius, home)
		sort.Ints(out)
		return out
	}
	// Ball stops short of the boundary (0.05 away): no ghosts.
	if got := ghosts(0.04); len(got) != 0 {
		t.Errorf("radius 0.04 (short of boundary) got ghosts %v", got)
	}
	// Ball crosses the boundary: the across-rank materialises a ghost.
	got := ghosts(0.06)
	found := false
	for _, r := range got {
		if r == across {
			found = true
		}
		if r == home {
			t.Errorf("home rank %d reported as its own ghost", home)
		}
	}
	if !found {
		t.Errorf("radius 0.06 (crossing x=0.5) ghosts %v missing across-rank %d", got, across)
	}
	// Count agrees with Ranks.
	if n := len(q.Ranks(nil, p, 0.06, home)); n != len(got) {
		t.Errorf("Count = %d, Ranks returned %d", n, len(got))
	}
}

func TestSphereOwnersCornerTouchesAllQuadrants(t *testing.T) {
	m, d := quadDecomp(t)
	q := NewSphereOwners(m, d)
	// At the quadrant corner (0.5, 0.5) every other rank is within any
	// positive filter radius.
	p := geom.V(0.49, 0.49, 0.5)
	home := homeOf(m, d, p)
	got := q.Ranks(nil, p, 0.05, home)
	if len(got) != d.Ranks-1 {
		t.Errorf("corner particle got ghosts on %d ranks (%v), want %d", len(got), got, d.Ranks-1)
	}
	seen := map[int]bool{}
	for _, r := range got {
		if r == home {
			t.Errorf("home rank %d in ghost set", home)
		}
		if seen[r] {
			t.Errorf("duplicate rank %d in ghost set %v", r, got)
		}
		seen[r] = true
	}
}

func TestSphereOwnersDomainEdgeVsFilterRadius(t *testing.T) {
	m, d := quadDecomp(t)
	q := NewSphereOwners(m, d)
	// A particle hugging the domain wall: the part of its filter ball
	// outside the domain intersects no elements, so only real neighbour
	// ranks appear, and the query tolerates balls poking outside.
	p := geom.V(0.01, 0.01, 0.5)
	home := homeOf(m, d, p)
	if got := q.Ranks(nil, p, 0.05, home); len(got) != 0 {
		t.Errorf("wall-hugging particle (small radius) got ghosts %v", got)
	}
	// Blow the radius up past the whole domain: every other rank is a ghost
	// target, exactly once.
	got := q.Ranks(nil, p, 2, home)
	if len(got) != d.Ranks-1 {
		t.Errorf("domain-covering radius found %d ghost ranks (%v), want %d", len(got), got, d.Ranks-1)
	}
	// home = -1 excludes nothing: the home rank joins the set.
	all := q.Ranks(nil, p, 2, -1)
	if len(all) != d.Ranks {
		t.Errorf("home=-1 found %d ranks (%v), want %d", len(all), all, d.Ranks)
	}
	// Zero radius produces no ghosts regardless of position.
	if got := q.Ranks(nil, p, 0, home); len(got) != 0 {
		t.Errorf("zero radius got ghosts %v", got)
	}
}

func TestSphereOwnersScalesWithFilter(t *testing.T) {
	m, err := New(geom.Box(geom.V(0, 0, 0), geom.V(8, 8, 1)), 16, 16, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	d, err := Decompose(m, 16)
	if err != nil {
		t.Fatal(err)
	}
	q := NewSphereOwners(m, d)
	pos := geom.V(4, 4, 0.5)
	home := d.RankOf(m.ElementAt(pos))
	small := len(q.Ranks(nil, pos, 0.3, home))
	large := len(q.Ranks(nil, pos, 3.0, home))
	if small >= large {
		t.Errorf("ghost count did not grow with filter: %d vs %d", small, large)
	}
	if got := len(q.Ranks(nil, pos, 0, home)); got != 0 {
		t.Errorf("zero filter produced %d ghosts", got)
	}
}

func TestSphereOwnersNoDuplicates(t *testing.T) {
	m, err := New(geom.Box(geom.V(0, 0, 0), geom.V(4, 4, 1)), 8, 8, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	d, err := Decompose(m, 4)
	if err != nil {
		t.Fatal(err)
	}
	q := NewSphereOwners(m, d)
	ranks := q.Ranks(nil, geom.V(2, 2, 0.5), 2.5, -1)
	seen := map[int]bool{}
	for _, r := range ranks {
		if seen[r] {
			t.Fatalf("duplicate rank %d in %v", r, ranks)
		}
		seen[r] = true
	}
	if len(ranks) != 4 {
		t.Errorf("big ball found %d ranks, want 4", len(ranks))
	}
}

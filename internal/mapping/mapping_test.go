package mapping

import (
	"testing"

	"picpredict/internal/geom"
	"picpredict/internal/mesh"
	"picpredict/internal/rebalance"
)

func quadMesh(t *testing.T) (*mesh.Mesh, *mesh.Decomposition) {
	t.Helper()
	m, err := mesh.New(geom.Box(geom.V(0, 0, 0), geom.V(4, 4, 1)), 4, 4, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	d, err := mesh.Decompose(m, 4)
	if err != nil {
		t.Fatal(err)
	}
	return m, d
}

func TestElementMapperBasics(t *testing.T) {
	m, d := quadMesh(t)
	em := NewElementMapper(m, d)
	if em.Ranks() != 4 {
		t.Fatalf("Ranks = %d, want 4", em.Ranks())
	}
	pos := []geom.Vec3{
		{X: 0.5, Y: 0.5, Z: 0.5},
		{X: 3.5, Y: 3.5, Z: 0.5},
		{X: 0.5, Y: 3.5, Z: 0.5},
		{X: 3.5, Y: 0.5, Z: 0.5},
	}
	dst := make([]int, len(pos))
	if err := em.Assign(dst, pos); err != nil {
		t.Fatal(err)
	}
	// The four corners of a 4-rank quadrant split land on 4 distinct ranks.
	seen := map[int]bool{}
	for _, r := range dst {
		if r < 0 || r >= 4 {
			t.Fatalf("rank %d out of range", r)
		}
		seen[r] = true
	}
	if len(seen) != 4 {
		t.Errorf("corner particles on %d ranks, want 4: %v", len(seen), dst)
	}
	// Consistency: rank matches the decomposition of the containing element.
	for i, p := range pos {
		if want := d.RankOf(m.ElementAt(p)); dst[i] != want {
			t.Errorf("particle %d rank %d, want %d", i, dst[i], want)
		}
	}
}

func TestElementMapperClampsOutside(t *testing.T) {
	m, d := quadMesh(t)
	em := NewElementMapper(m, d)
	dst := make([]int, 1)
	if err := em.Assign(dst, []geom.Vec3{{X: -0.5, Y: 2, Z: 0.5}}); err != nil {
		t.Fatalf("outside particle rejected: %v", err)
	}
	want := d.RankOf(m.ElementAt(geom.V(0, 2, 0.5)))
	if dst[0] != want {
		t.Errorf("clamped rank = %d, want %d", dst[0], want)
	}
}

// TestElementMappersHighFace: on a 49×49×1 unit mesh, where lo + d·n
// rounds below 1, every element-based mapper accepts a particle on the
// x = 1 wall and one clamped back from x = 1.2; element mapping puts both
// on the owner of the last element column.
func TestElementMappersHighFace(t *testing.T) {
	m, err := mesh.New(geom.Box(geom.V(0, 0, 0), geom.V(1, 1, 0.01)), 49, 49, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	d, err := mesh.Decompose(m, 4)
	if err != nil {
		t.Fatal(err)
	}
	pos := []geom.Vec3{geom.V(1, 0.5, 0.005), geom.V(1.2, 0.5, 0.005), geom.V(0.25, 0.25, 0.005)}
	for k, mp := range []Mapper{
		NewElementMapper(m, d),
		NewDynamicMapper(m, 4, rebalance.Threshold{Factor: 1.5}),
		NewHilbertMapper(m, 4),
		NewHelperMapper(m, d),
		NewWeightedMapper(m, 4),
	} {
		dst := make([]int, len(pos))
		if err := mp.Assign(dst, pos); err != nil {
			t.Errorf("mapper %d (%T): %v", k, mp, err)
			continue
		}
		for i, r := range dst {
			if r < 0 || r >= 4 {
				t.Errorf("mapper %d (%T): particle %d on rank %d", k, mp, i, r)
			}
		}
		if _, ok := mp.(*ElementMapper); ok {
			want := d.RankOf(m.Elements.Index(48, 24, 0))
			if dst[0] != want || dst[1] != want {
				t.Errorf("element: wall particles on ranks %v, want %d", dst[:2], want)
			}
		}
	}
}

func TestElementMapperLengthMismatch(t *testing.T) {
	m, d := quadMesh(t)
	em := NewElementMapper(m, d)
	if err := em.Assign(make([]int, 2), make([]geom.Vec3, 3)); err == nil {
		t.Error("length mismatch accepted")
	}
}

func TestElementMapperClusteredImbalance(t *testing.T) {
	// All particles in one corner element: element mapping puts them all on
	// one rank — the paper's Fig 1/8 pathology.
	m, d := quadMesh(t)
	em := NewElementMapper(m, d)
	pos := make([]geom.Vec3, 100)
	for i := range pos {
		pos[i] = geom.V(0.1+0.001*float64(i), 0.1, 0.5)
	}
	dst := make([]int, len(pos))
	if err := em.Assign(dst, pos); err != nil {
		t.Fatal(err)
	}
	for i, r := range dst {
		if r != dst[0] {
			t.Fatalf("particle %d on rank %d, others on %d", i, r, dst[0])
		}
	}
}

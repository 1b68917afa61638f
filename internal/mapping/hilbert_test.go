package mapping

import (
	"testing"

	"picpredict/internal/geom"
	"picpredict/internal/mesh"
)

func TestHilbertIndexIsBijection(t *testing.T) {
	const order = 3 // 8×8×8
	seen := map[uint64][3]uint32{}
	for z := uint32(0); z < 8; z++ {
		for y := uint32(0); y < 8; y++ {
			for x := uint32(0); x < 8; x++ {
				h := hilbertIndex3D(order, x, y, z)
				if h >= 512 {
					t.Fatalf("index %d out of range for (%d,%d,%d)", h, x, y, z)
				}
				if prev, dup := seen[h]; dup {
					t.Fatalf("index %d for both %v and (%d,%d,%d)", h, prev, x, y, z)
				}
				seen[h] = [3]uint32{x, y, z}
			}
		}
	}
	if len(seen) != 512 {
		t.Fatalf("covered %d cells, want 512", len(seen))
	}
}

func TestHilbertIndexContinuity(t *testing.T) {
	// Consecutive Hilbert indices correspond to adjacent cells (Manhattan
	// distance 1) — the locality property the mapper relies on.
	const order = 3
	cells := make([][3]uint32, 512)
	for z := uint32(0); z < 8; z++ {
		for y := uint32(0); y < 8; y++ {
			for x := uint32(0); x < 8; x++ {
				cells[hilbertIndex3D(order, x, y, z)] = [3]uint32{x, y, z}
			}
		}
	}
	for i := 1; i < len(cells); i++ {
		d := absDiff(cells[i][0], cells[i-1][0]) + absDiff(cells[i][1], cells[i-1][1]) + absDiff(cells[i][2], cells[i-1][2])
		if d != 1 {
			t.Fatalf("curve jump %d between index %d %v and %d %v", d, i-1, cells[i-1], i, cells[i])
		}
	}
}

func absDiff(a, b uint32) uint32 {
	if a > b {
		return a - b
	}
	return b - a
}

func TestHilbertMapperBalances(t *testing.T) {
	m, err := mesh.New(geom.Box(geom.V(0, 0, 0), geom.V(8, 8, 1)), 8, 8, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	hm := NewHilbertMapper(m, 4)
	if hm.Ranks() != 4 {
		t.Fatalf("Ranks = %d, want 4", hm.Ranks())
	}
	pos := randomCloud(1000, 10, geom.Box(geom.V(0, 0, 0), geom.V(8, 8, 1)))
	dst := make([]int, len(pos))
	if err := hm.Assign(dst, pos); err != nil {
		t.Fatal(err)
	}
	counts := make([]int, 4)
	for _, r := range dst {
		counts[r]++
	}
	for r, c := range counts {
		if c != 250 {
			t.Errorf("rank %d holds %d, want exactly 250 (equal chunks)", r, c)
		}
	}
}

func TestHilbertMapperLocality(t *testing.T) {
	// Particles in the same element always land on the same rank.
	m, err := mesh.New(geom.Box(geom.V(0, 0, 0), geom.V(4, 4, 1)), 4, 4, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	hm := NewHilbertMapper(m, 2)
	pos := []geom.Vec3{
		{X: 0.2, Y: 0.2, Z: 0.5},
		{X: 0.8, Y: 0.8, Z: 0.5}, // same element as above
		{X: 3.5, Y: 3.5, Z: 0.5},
		{X: 3.2, Y: 3.8, Z: 0.5}, // same element as above
	}
	dst := make([]int, len(pos))
	if err := hm.Assign(dst, pos); err != nil {
		t.Fatal(err)
	}
	if dst[0] != dst[1] {
		t.Errorf("same-element particles split across ranks: %v", dst)
	}
	if dst[2] != dst[3] {
		t.Errorf("same-element particles split across ranks: %v", dst)
	}
}

func TestHilbertMapperEmptyAndErrors(t *testing.T) {
	m, err := mesh.New(geom.Box(geom.V(0, 0, 0), geom.V(4, 4, 1)), 4, 4, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	hm := NewHilbertMapper(m, 2)
	if err := hm.Assign(nil, nil); err != nil {
		t.Errorf("empty frame rejected: %v", err)
	}
	if err := hm.Assign(make([]int, 1), make([]geom.Vec3, 2)); err == nil {
		t.Error("length mismatch accepted")
	}
	bad := NewHilbertMapper(m, 0)
	if err := bad.Assign(make([]int, 1), make([]geom.Vec3, 1)); err == nil {
		t.Error("zero ranks accepted")
	}
}

package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"picpredict/internal/geom"
	"picpredict/internal/mapping"
	"picpredict/internal/mesh"
	"picpredict/internal/obs"
)

// tiledTestMappers returns fresh-mapper factories for both ghost-capable
// mappers and for hilbert, which answers no ghost queries and so runs the
// index-order body at any radius; every generator gets its own mapper so no
// per-frame state leaks between the runs being compared.
func tiledTestMappers(t *testing.T) map[string]func() mapping.Mapper {
	t.Helper()
	m, err := mesh.New(geom.Box(geom.V(0, 0, 0), geom.V(1, 1, 1)), 8, 8, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	d, err := mesh.Decompose(m, 8)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]func() mapping.Mapper{
		"element": func() mapping.Mapper { return mapping.NewElementMapper(m, d) },
		"bin":     func() mapping.Mapper { return mapping.NewBinMapper(8, 0.05) },
		"hilbert": func() mapping.Mapper { return mapping.NewHilbertMapper(m, 8) },
	}
}

// runFill feeds the frames through a generator with the given worker count
// and returns the workload.
func runFill(t *testing.T, mapper mapping.Mapper, radius float64, workers int, iters []int, pos []geom.Vec3, np int) *Workload {
	t.Helper()
	g, err := NewGenerator(Config{Mapper: mapper, FilterRadius: radius, Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	for k, it := range iters {
		if err := g.Frame(it, pos[k*np:(k+1)*np]); err != nil {
			t.Fatal(err)
		}
	}
	wl, err := g.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return wl
}

// TestFillLayoutsBitIdentical is the fill's correctness contract: for every
// test mapper, with and without ghosts, and at every worker count, the
// generator reproduces the flat per-particle oracle exactly (integer
// counters, ordered reductions).
func TestFillLayoutsBitIdentical(t *testing.T) {
	const np = 500
	iters, pos := clusteredFrames(5, np, 29)
	// The labels are kept as stable test IDs; only the worker count
	// distinguishes cases, since the generator picks its body from the
	// frame (tiled when ghost queries are on, index order otherwise).
	variants := []struct {
		name    string
		workers int
	}{
		{"tiled-serial", 0},
		{"tiled-parallel-2", 2},
		{"tiled-parallel-3", 3},
		{"tiled-parallel-8", 8},
		{"scalar-parallel-3", 3},
		{"auto-serial", 0},
		{"auto-parallel-3", 3},
	}
	for name, mk := range tiledTestMappers(t) {
		for _, radius := range []float64{0, 0.04} {
			ref := oracleWorkload(t, mk(), radius, iters, pos, np)
			for _, v := range variants {
				t.Run(fmt.Sprintf("%s/r=%g/%s", name, radius, v.name), func(t *testing.T) {
					got := runFill(t, mk(), radius, v.workers, iters, pos, np)
					requireEqualWorkloads(t, ref, got)
				})
			}
		}
	}
}

// TestFillLayoutsEdgeFrames covers the degenerate frames every fill must
// agree on: zero particles, more workers than particles, and a zero filter
// radius (ghost generation disabled).
func TestFillLayoutsEdgeFrames(t *testing.T) {
	mappers := tiledTestMappers(t)

	t.Run("zero-particles", func(t *testing.T) {
		for name, mk := range mappers {
			for _, workers := range []int{0, 4} {
				g, err := NewGenerator(Config{Mapper: mk(), FilterRadius: 0.04, Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				for f := 0; f < 3; f++ {
					if err := g.Frame(f, nil); err != nil {
						t.Fatalf("%s workers %d: empty frame %d: %v", name, workers, f, err)
					}
				}
				wl, err := g.Finish()
				if err != nil {
					t.Fatal(err)
				}
				if wl.NumParticles != 0 || wl.RealComp.Frames() != 3 {
					t.Fatalf("%s workers %d: got %d particles, %d frames", name, workers, wl.NumParticles, wl.RealComp.Frames())
				}
			}
		}
	})

	t.Run("workers-exceed-particles", func(t *testing.T) {
		const np = 3
		iters, pos := clusteredFrames(4, np, 7)
		for name, mk := range mappers {
			ref := oracleWorkload(t, mk(), 0.04, iters, pos, np)
			// Labels are stable test IDs, as in TestFillLayoutsBitIdentical.
			for _, v := range []struct {
				label   string
				workers int
			}{{"layout=1", 8}, {"layout=2", 8}, {"layout=0", 16}} {
				got := runFill(t, mk(), 0.04, v.workers, iters, pos, np)
				t.Run(fmt.Sprintf("%s/%s/w=%d", name, v.label, v.workers), func(t *testing.T) {
					requireEqualWorkloads(t, ref, got)
				})
			}
		}
	})

	t.Run("radius-zero", func(t *testing.T) {
		const np = 200
		iters, pos := clusteredFrames(3, np, 13)
		for name, mk := range mappers {
			ref := oracleWorkload(t, mk(), 0, iters, pos, np)
			got := runFill(t, mk(), 0, 3, iters, pos, np)
			t.Run(name, func(t *testing.T) { requireEqualWorkloads(t, ref, got) })
		}
	})
}

// TestFillLayoutsRandomised fuzzes the fill over random cloud shapes,
// sizes, radii and worker counts: whatever the frame looks like, the
// generator must reproduce the flat oracle bit-for-bit.
func TestFillLayoutsRandomised(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	mappers := tiledTestMappers(t)
	for trial := 0; trial < 12; trial++ {
		np := 1 + rng.Intn(300)
		frames := 1 + rng.Intn(4)
		radius := []float64{0, 0.003, 0.02, 0.15}[rng.Intn(4)]
		workers := 1 + rng.Intn(6)
		iters, pos := clusteredFrames(frames, np, rng.Int63())
		for name, mk := range mappers {
			ref := oracleWorkload(t, mk(), radius, iters, pos, np)
			got := runFill(t, mk(), radius, workers, iters, pos, np)
			if t.Failed() {
				break
			}
			t.Run(fmt.Sprintf("trial%d/%s/np=%d/r=%g/w=%d", trial, name, np, radius, workers), func(t *testing.T) {
				requireEqualWorkloads(t, ref, got)
			})
		}
	}

	// A dense disc under bin mapping at paper ranks: about one particle
	// per bin, and a filter ball reaching dozens of bins, so a tile's
	// ghost pairs far outnumber the pair table's slots and the fill evicts
	// into the accumulators.
	const np, radius = 5000, 0.1
	iters, pos := discFrames(3, np, 43)
	mk := func() mapping.Mapper { return mapping.NewBinMapper(8352, 0) }
	ref := oracleWorkload(t, mk(), radius, iters, pos, np)
	for _, workers := range []int{0, 2} {
		t.Run(fmt.Sprintf("dense-disc/bin/R=8352/w=%d", workers), func(t *testing.T) {
			requireEqualWorkloads(t, ref, runFill(t, mk(), radius, workers, iters, pos, np))
		})
	}
}

// discFrames returns frames of np particles uniform in the unit disc,
// each frame jittering every particle by up to 0.03 per axis.
func discFrames(frames, np int, seed int64) ([]int, []geom.Vec3) {
	rng := rand.New(rand.NewSource(seed))
	base := make([]geom.Vec3, np)
	for i := range base {
		r, a := math.Sqrt(rng.Float64()), 2*math.Pi*rng.Float64()
		base[i] = geom.V(r*math.Cos(a), r*math.Sin(a), 0)
	}
	iters := make([]int, frames)
	pos := make([]geom.Vec3, 0, frames*np)
	for f := range iters {
		iters[f] = f * 100
		for _, p := range base {
			pos = append(pos, p.Add(geom.V(0.03*rng.Float64(), 0.03*rng.Float64(), 0)))
		}
	}
	return iters, pos
}

// TestFillCountsTilesOnGhostFramesOnly pins the body choice the generator
// reports: ghost frames are tiled (core.tiles > 0, one ghost query per
// particle) and ghost-less frames walk index order (no tiles, no queries),
// with the same counts at any worker count.
func TestFillCountsTilesOnGhostFramesOnly(t *testing.T) {
	const np, frames = 300, 3
	iters, pos := clusteredFrames(frames, np, 5)
	for name, mk := range tiledTestMappers(t) {
		for _, radius := range []float64{0, 0.04} {
			ghosts := radius > 0 && name != "hilbert"
			var tiles []int64
			for _, workers := range []int{0, 3} {
				reg := obs.New()
				g, err := NewGenerator(Config{Mapper: mk(), FilterRadius: radius, Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				g.SetObs(reg)
				for k, it := range iters {
					if err := g.Frame(it, pos[k*np:(k+1)*np]); err != nil {
						t.Fatal(err)
					}
				}
				n := reg.Counter("core.tiles").Value()
				queries := reg.Counter("core.ghost_queries").Value()
				wantQueries := int64(0)
				if ghosts {
					wantQueries = frames * np
				}
				if (n > 0) != ghosts || queries != wantQueries {
					t.Errorf("%s r=%g workers=%d: %d tiles, %d ghost queries; ghosts=%v wants tiles iff ghosts and %d queries",
						name, radius, workers, n, queries, ghosts, wantQueries)
				}
				tiles = append(tiles, n)
			}
			if tiles[0] != tiles[1] {
				t.Errorf("%s r=%g: serial counted %d tiles, parallel %d", name, radius, tiles[0], tiles[1])
			}
		}
	}
}

package bsst

import (
	"math/rand"
	"testing"

	"picpredict/internal/core"
	"picpredict/internal/geom"
	"picpredict/internal/mapping"
	"picpredict/internal/mesh"
	"picpredict/internal/rebalance"
)

// Raising the latency never shortens a prediction, and raising the
// bandwidth never lengthens one. Every barrier term is a sender's compute
// plus a message cost that is monotone in both parameters, and rounding
// keeps the order of sums, products, quotients and maxima, so Total and
// every IntervalWall keep the order exactly. Both ladders step the way that
// makes messages dearer: latency up from 0, bandwidth down.
func TestPredictionMonotoneInMachine(t *testing.T) {
	wls := propertyWorkloads(150)
	for _, c := range []struct {
		param string
		steps []float64
		set   func(*Machine, float64)
	}{
		{"Latency", []float64{0, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3}, func(m *Machine, v float64) { m.Latency = v }},
		{"Bandwidth", []float64{1e12, 1e11, 1e10, 1e9, 1e8, 1e7, 1e6}, func(m *Machine, v float64) { m.Bandwidth = v }},
	} {
		for _, base := range []Machine{Quartz(), Vulcan()} {
			p := trainedPlatform(t)
			rises := 0
			for i, wl := range wls {
				var prev *Prediction
				for _, v := range c.steps {
					p.Machine = base
					c.set(&p.Machine, v)
					pred, err := p.SimulateBSP(wl)
					if err != nil {
						t.Fatal(err)
					}
					if prev != nil {
						if pred.Total < prev.Total {
							t.Errorf("%s, workload %d: %s %g gives Total %v, the step before %v",
								base.Name, i, c.param, v, pred.Total, prev.Total)
						}
						for k := range pred.IntervalWall {
							if pred.IntervalWall[k] < prev.IntervalWall[k] {
								t.Errorf("%s, workload %d interval %d: %s %g gives wall %v, the step before %v",
									base.Name, i, k, c.param, v, pred.IntervalWall[k], prev.IntervalWall[k])
							}
						}
						if pred.Total > prev.Total {
							rises++
						}
					}
					prev = pred
				}
			}
			// The ladder must reach the barrier, not only compute-bound
			// intervals.
			if rises == 0 {
				t.Errorf("%s: Total never rose along the %s ladder", base.Name, c.param)
			}
			t.Logf("%s, %s ladder: Total rose %d times", base.Name, c.param, rises)
		}
	}
}

// A DynamicMapper whose policy never fires keeps the static bisection it
// installs at frame 0, so it predicts what a static ElementMapper over the
// same mesh.Decompose predicts, bit for bit. Only the shape of Migration
// differs: all zeros for the dynamic mapper, nil for the static one.
func TestNeverFiringPolicyMatchesStatic(t *testing.T) {
	p := trainedPlatform(t)
	ghosted := 0
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nx, ny, nz := 1+rng.Intn(8), 1+rng.Intn(8), 1+rng.Intn(3)
		box := geom.Box(geom.V(0, 0, 0), geom.V(0.5+rng.Float64(), 0.5+rng.Float64(), 0.1+rng.Float64()))
		m, err := mesh.New(box, nx, ny, nz, 1+rng.Intn(5))
		if err != nil {
			t.Fatal(err)
		}
		ranks := 1 + rng.Intn(2*m.NumElements())
		d, err := mesh.Decompose(m, ranks)
		if err != nil {
			t.Fatal(err)
		}
		frames, np := 3+rng.Intn(6), 20+rng.Intn(500)
		iters, pos := driftingFrames(rng, box, frames, np)
		filter := (0.02 + 0.1*rng.Float64()) * box.Extent().X
		build := func(mp mapping.Mapper) *core.Workload {
			wl, err := core.RunFrames(core.Config{Mapper: mp, FilterRadius: filter}, iters, pos, np)
			if err != nil {
				t.Fatal(err)
			}
			return wl
		}
		static := build(mapping.NewElementMapper(m, d))
		dynamic := build(mapping.NewDynamicMapper(m, ranks, rebalance.Periodic{Every: 1 << 20}))
		if static.GhostComm != nil && static.GhostComm.Aggregate().Total() > 0 {
			ghosted++
		}
		want, err := p.SimulateBSP(static)
		if err != nil {
			t.Fatal(err)
		}
		got, err := p.SimulateBSP(dynamic)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			name      string
			got, want []float64
		}{
			{"Total", []float64{got.Total}, []float64{want.Total}},
			{"IntervalWall", got.IntervalWall, want.IntervalWall},
			{"Compute", got.Compute, want.Compute},
			{"Comm", got.Comm, want.Comm},
			{"RankBusy", got.RankBusy, want.RankBusy},
		} {
			if !sameBits(c.got, c.want) {
				t.Errorf("seed %d (%d×%d×%d, R=%d): %s = %v, static %v", seed, nx, ny, nz, ranks, c.name, c.got, c.want)
			}
		}
		if want.Migration != nil {
			t.Errorf("seed %d: static mapping priced migration %v", seed, want.Migration)
		}
		if !sameBits(got.Migration, make([]float64, frames)) {
			t.Errorf("seed %d: never-firing policy priced migration %v, want %d zeros", seed, got.Migration, frames)
		}
	}
	// The filter must make ghost traffic, or the ghost views go unchecked.
	if ghosted == 0 {
		t.Error("no seed produced ghost communication")
	}
}

// driftingFrames returns frames of np particles in one to four Gaussian
// clouds that drift across box, with positions flattened frame by frame as
// core.RunFrames takes them, 100 iterations apart.
func driftingFrames(rng *rand.Rand, box geom.AABB, frames, np int) ([]int, []geom.Vec3) {
	e := box.Extent()
	type cloud struct{ c, v geom.Vec3 }
	cl := make([]cloud, 1+rng.Intn(4))
	for i := range cl {
		cl[i].c = box.Lo.Add(geom.V(rng.Float64()*e.X, rng.Float64()*e.Y, rng.Float64()*e.Z))
		cl[i].v = geom.V(rng.NormFloat64()*e.X, rng.NormFloat64()*e.Y, rng.NormFloat64()*e.Z).Scale(0.08)
	}
	spread := 0.02 + 0.1*rng.Float64()
	iters := make([]int, frames)
	pos := make([]geom.Vec3, 0, frames*np)
	for f := range iters {
		iters[f] = 100 * f
		for i := 0; i < np; i++ {
			k := cl[i%len(cl)]
			pos = append(pos, k.c.Add(k.v.Scale(float64(f))).Add(geom.V(
				rng.NormFloat64()*spread*e.X, rng.NormFloat64()*spread*e.Y, rng.NormFloat64()*spread*e.Z)))
		}
	}
	return iters, pos
}

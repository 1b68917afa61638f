package bsst

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"picpredict/internal/core"
	"picpredict/internal/kernels"
	"picpredict/internal/obs"
	"picpredict/internal/perfmodel"
	"picpredict/internal/sparse"
)

// oracleSimulateBSP is the BSP recurrence as it stood before the replay
// memo and the order-free barrier fold: one IterTime call per (rank,
// interval) and every comm barrier folded over the sorted Entries(). It is
// the reference SimulateBSP must match bit for bit.
func oracleSimulateBSP(p *Platform, wl *core.Workload) (*Prediction, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if wl.RealComp.Frames() == 0 {
		return nil, fmt.Errorf("bsst: empty workload")
	}
	ranks := wl.Ranks
	sampleEvery := wl.SampleEvery
	if sampleEvery <= 0 {
		sampleEvery = 1
	}
	pred := &Prediction{Ranks: ranks, RankBusy: make([]float64, ranks)}
	pointsPerElem := p.N * p.N * p.N
	var migScratch []migEntry
	compute := make([]float64, ranks)
	for k := 0; k < wl.RealComp.Frames(); k++ {
		var maxCompute float64
		for r := 0; r < ranks; r++ {
			np, ngp := frameCounts(wl, r, k)
			it, err := p.IterTime(np, ngp, ranks)
			if err != nil {
				return nil, err
			}
			compute[r] = float64(sampleEvery) * it
			pred.RankBusy[r] += compute[r]
			if compute[r] > maxCompute {
				maxCompute = compute[r]
			}
		}
		base := maxCompute
		for _, e := range wl.RealComm.At(k).Entries() {
			if t := compute[e.Src] + p.Machine.transferTime(e.Count); t > base {
				base = t
			}
		}
		if wl.GhostComm != nil {
			for _, e := range wl.GhostComm.At(k).Entries() {
				t := compute[e.Src] + float64(sampleEvery)*p.Machine.transferTime(e.Count)
				if t > base {
					base = t
				}
			}
		}
		wall := base
		if wl.MigElemComm != nil {
			migScratch = migrationEntriesAt(wl, k, migScratch)
			for _, e := range migScratch {
				t := compute[e.src] + p.Machine.migrationTime(e.elems, e.parts, pointsPerElem)
				if t > wall {
					wall = t
				}
			}
			pred.Migration = append(pred.Migration, wall-base)
		}
		pred.IntervalWall = append(pred.IntervalWall, wall)
		pred.Compute = append(pred.Compute, maxCompute)
		pred.Comm = append(pred.Comm, base-maxCompute)
		pred.Total += wall
	}
	return pred, nil
}

// randomWorkload builds a small seeded workload by hand: R in [1, 64], one
// to six frames, idle (0, 0) and ghost-only ranks, rank counts drawn from a
// small pool so pairs repeat within and across frames, comm and ghost-comm
// frames that are empty, sparse or dense, and — when mig is set —
// migration matrices whose particle pairs are a subset of the element
// pairs, as the generator writes them.
func randomWorkload(rng *rand.Rand, mig bool) *core.Workload {
	ranks := 1 + rng.Intn(64)
	frames := 1 + rng.Intn(6)
	ghosts := rng.Intn(4) != 0
	wl := &core.Workload{
		Ranks:       ranks,
		SampleEvery: []int{0, 1, 7, 100}[rng.Intn(4)],
		RealComp:    core.NewCompMatrix(ranks),
		RealComm:    sparse.NewSeries(ranks),
	}
	if ghosts {
		wl.GhostComp = core.NewCompMatrix(ranks)
		wl.GhostComm = sparse.NewSeries(ranks)
	}
	if mig {
		wl.MigElemComm = sparse.NewSeries(ranks)
		wl.MigPartComm = sparse.NewSeries(ranks)
	}
	// count draws a particle count spanning six decades, so comm terms
	// sometimes beat the slowest rank's compute and sometimes do not.
	count := func() int64 { return int64(math.Exp(rng.Float64() * 14)) }
	pool := make([][2]int64, 1+rng.Intn(4))
	for i := range pool {
		pool[i] = [2]int64{count(), count() / 4}
	}
	fillComm := func() *sparse.Matrix {
		m := sparse.NewAcc(ranks)
		switch rng.Intn(3) {
		case 0: // empty
		case 1: // a few pairs
			for i := rng.Intn(2 * ranks); i > 0; i-- {
				_ = m.Add(rng.Intn(ranks), rng.Intn(ranks), count())
			}
		default: // every off-diagonal pair
			for s := 0; s < ranks; s++ {
				for d := 0; d < ranks; d++ {
					if s != d {
						_ = m.Add(s, d, 1+rng.Int63n(5000))
					}
				}
			}
		}
		return m.Seal()
	}
	for k := 0; k < frames; k++ {
		reals := wl.RealComp.AppendFrame(100 * k)
		var ghostCounts []int64
		if ghosts {
			ghostCounts = wl.GhostComp.AppendFrame(100 * k)
		}
		for r := 0; r < ranks; r++ {
			var np, ngp int64
			switch rng.Intn(5) {
			case 0: // idle
			case 1: // ghost-only
				ngp = 1 + rng.Int63n(300)
			case 2: // a fresh pair
				np, ngp = count(), count()/3
			default: // a repeated pair
				pr := pool[rng.Intn(len(pool))]
				np, ngp = pr[0], pr[1]
			}
			reals[r] = np
			if ghosts {
				ghostCounts[r] = ngp
			}
		}
		wl.RealComm.Append(fillComm())
		if ghosts {
			wl.GhostComm.Append(fillComm())
		}
		if mig {
			elems, parts := sparse.NewAcc(ranks), sparse.NewAcc(ranks)
			if rng.Intn(2) == 0 {
				for i := 1 + rng.Intn(ranks); i > 0; i-- {
					s, d := rng.Intn(ranks), rng.Intn(ranks)
					_ = elems.Add(s, d, 1+rng.Int63n(40))
					if rng.Intn(2) == 0 {
						_ = parts.Add(s, d, 1+rng.Int63n(2000))
					}
				}
			}
			wl.MigElemComm.Append(elems.Seal())
			wl.MigPartComm.Append(parts.Seal())
		}
	}
	return wl
}

// propertyWorkloads is the seeded set the oracle and engine-agreement
// tests share: every third workload carries migration matrices.
func propertyWorkloads(n int) []*core.Workload {
	rng := rand.New(rand.NewSource(20260417))
	out := make([]*core.Workload, n)
	for i := range out {
		out[i] = randomWorkload(rng, i%3 == 2)
	}
	return out
}

// sameBits reports whether two series are equal bit for bit.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) || (a == nil) != (b == nil) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func TestSimulateBSPMatchesOracle(t *testing.T) {
	p := trainedPlatform(t)
	vulcan := trainedPlatform(t)
	vulcan.Machine = Vulcan()
	var commWins, migWins int
	for i, wl := range propertyWorkloads(150) {
		plat := p
		if i%2 == 1 {
			plat = vulcan
		}
		want, err := oracleSimulateBSP(plat, wl)
		if err != nil {
			t.Fatal(err)
		}
		got, err := plat.SimulateBSP(wl)
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
			{"Migration", got.Migration, want.Migration},
			{"RankBusy", got.RankBusy, want.RankBusy},
		} {
			if !sameBits(c.got, c.want) {
				t.Errorf("workload %d (R=%d, T=%d): %s = %v, oracle %v",
					i, wl.Ranks, wl.RealComp.Frames(), c.name, c.got, c.want)
			}
		}
		for k := range want.IntervalWall {
			if want.Comm[k] > 0 {
				commWins++
			}
			if want.Migration != nil && want.Migration[k] > 0 {
				migWins++
			}
		}
	}
	// The set must exercise the folds, not just compute-bound intervals.
	if commWins == 0 || migWins == 0 {
		t.Errorf("comm set the barrier in %d intervals and migration in %d; want both > 0", commWins, migWins)
	}
}

// errPoisoned is the failure poisonedModel reports on its one bad pair.
var errPoisoned = errors.New("poisoned feature pair")

// poisonedModel wraps a fitted model and fails on one (Np, Ngp) pair. The
// features are whole particle counts, so the integer comparison is exact.
type poisonedModel struct {
	perfmodel.Model
	np, ngp int64
}

func (m poisonedModel) Predict(x []float64) (float64, error) {
	if int64(x[0]) == m.np && int64(x[1]) == m.ngp {
		return 0, errPoisoned
	}
	return m.Model.Predict(x)
}

// A model that fails on one pair makes both engines fail with that error —
// whether the pair is a busy rank's or the idle (0, 0) one the memo
// short-circuits — and leaves the replay counters untouched.
func TestSimulateModelErrorPropagates(t *testing.T) {
	wl := countedWorkload()
	for _, pair := range [][2]int64{{5, 1}, {7, 0}, {0, 0}} {
		p := trainedPlatform(t)
		p.Models[kernels.Projection.Name] = poisonedModel{
			Model: p.Models[kernels.Projection.Name], np: pair[0], ngp: pair[1],
		}
		p.Obs = obs.New()
		for name, sim := range map[string]func(*core.Workload) (*Prediction, error){
			"event": p.Simulate, "bsp": p.SimulateBSP,
		} {
			if _, err := sim(wl); !errors.Is(err, errPoisoned) {
				t.Errorf("pair %v, %s engine: err = %v, want the model's error", pair, name, err)
			}
		}
		snap := p.Obs.Snapshot()
		if n := snap.Counters[obs.BsstRankIntervals] + snap.Counters[obs.BsstIterEvals]; n != 0 {
			t.Errorf("pair %v: failed replays added %d to the replay counters", pair, n)
		}
	}
}

// countedWorkload is a hand-built 4-rank, 3-frame workload with exactly
// four distinct (np, ngp) pairs over its 12 rank-intervals: (0,0), (5,1),
// (0,2) and (7,0).
func countedWorkload() *core.Workload {
	wl := &core.Workload{
		Ranks:       4,
		SampleEvery: 10,
		RealComp:    core.NewCompMatrix(4),
		GhostComp:   core.NewCompMatrix(4),
		RealComm:    sparse.NewSeries(4),
		GhostComm:   sparse.NewSeries(4),
	}
	for k, f := range []struct{ real, ghost [4]int64 }{
		{[4]int64{0, 5, 5, 0}, [4]int64{0, 1, 1, 2}},
		{[4]int64{5, 0, 0, 7}, [4]int64{1, 0, 0, 0}},
		{[4]int64{7, 7, 7, 7}, [4]int64{0, 0, 0, 0}},
	} {
		copy(wl.RealComp.AppendFrame(100*k), f.real[:])
		copy(wl.GhostComp.AppendFrame(100*k), f.ghost[:])
		rc, gc := sparse.NewAcc(4), sparse.NewAcc(4)
		_ = rc.Add(1, 3, 2)
		_ = gc.Add(0, 2, 1)
		wl.RealComm.Append(rc.Seal())
		wl.GhostComm.Append(gc.Seal())
	}
	return wl
}

// Each completed replay adds R×T to bsst.rank_intervals and its distinct
// pair count to bsst.iter_evals, once, whichever engine ran it.
func TestReplayCounters(t *testing.T) {
	p := trainedPlatform(t)
	p.Obs = obs.New()
	wl := countedWorkload()
	for i, sim := range []func(*core.Workload) (*Prediction, error){p.SimulateBSP, p.SimulateBSP, p.Simulate} {
		if _, err := sim(wl); err != nil {
			t.Fatal(err)
		}
		snap := p.Obs.Snapshot()
		replays := int64(i + 1)
		if got, want := snap.Counters[obs.BsstRankIntervals], 12*replays; got != want {
			t.Errorf("after %d replays: %s = %d, want %d", replays, obs.BsstRankIntervals, got, want)
		}
		if got, want := snap.Counters[obs.BsstIterEvals], 4*replays; got != want {
			t.Errorf("after %d replays: %s = %d, want %d", replays, obs.BsstIterEvals, got, want)
		}
	}
}

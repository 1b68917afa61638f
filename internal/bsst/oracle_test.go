package bsst

import (
	"container/heap"
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

// The discrete-event engine. Components are processor ranks; each sampling
// interval is one bulk-synchronous superstep:
//
//	IterStart(k)      — all ranks begin computing with their frame-k load;
//	ComputeDone(k, r) — rank r finishes computing and emits its outgoing
//	                    particle-migration and ghost-update messages;
//	MsgArrive(k, d)   — a message lands on rank d;
//	barrier           — when every rank has finished and every message has
//	                    arrived, interval k ends and IterStart(k+1) fires
//	                    at the current maximum clock (PIC iterations are
//	                    globally synchronised by the fluid solve).
type eventKind uint8

const (
	evComputeDone eventKind = iota
	evMsgArrive
)

type event struct {
	time float64
	kind eventKind
	rank int
	seq  int // FIFO tie-break for determinism
	// mig marks rebalance-migration arrivals so the interval accounting can
	// split the critical path: interval wall without mig events is the
	// compute+comm base, and anything beyond it is priced migration cost.
	mig bool
}

type eventQueue []event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	//lint:allow floatcmp exact tie-break keeps the event order a strict total order; a tolerance would break heap invariants
	if q[i].time != q[j].time {
		return q[i].time < q[j].time
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x any)   { *q = append(*q, x.(event)) }
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	x := old[n-1]
	*q = old[:n-1]
	return x
}

// oracleSimulateEvent replays a generated workload through the
// discrete-event engine, the BE-SST analogue that preceded the closed-form
// recurrence: it pushes every compute-done and message-arrival event through
// a priority queue on an absolute clock. SimulateBSP must agree with it
// interval for interval, to rounding.
func oracleSimulateEvent(p *Platform, wl *core.Workload) (*Prediction, error) {
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
	m := p.simMetrics()
	memo := newIterMemo(p, ranks)
	pointsPerElem := p.N * p.N * p.N
	var migScratch []migEntry
	migBytes := 0.0
	compute := make([]float64, ranks)
	clock := 0.0
	var q eventQueue
	seq := 0
	push := func(t float64, k eventKind, r int, mig bool) {
		heap.Push(&q, event{time: t, kind: k, rank: r, seq: seq, mig: mig})
		seq++
	}
	for k := 0; k < wl.RealComp.Frames(); k++ {
		m.begin()
		// Superstep k starts at the barrier time `clock`. Pre-group the
		// interval's messages by sender so each ComputeDone event emits
		// its own messages in O(out-degree) rather than scanning the full
		// communication matrix.
		type outMsg struct {
			dst  int
			time float64
			mig  bool
		}
		outbox := make(map[int][]outMsg)
		for _, e := range wl.RealComm.At(k).Entries() {
			outbox[e.Src] = append(outbox[e.Src], outMsg{dst: e.Dst, time: p.Machine.transferTime(e.Count)})
		}
		if wl.GhostComm != nil {
			for _, e := range wl.GhostComm.At(k).Entries() {
				t := float64(sampleEvery) * p.Machine.transferTime(e.Count)
				outbox[e.Src] = append(outbox[e.Src], outMsg{dst: e.Dst, time: t})
			}
		}
		if wl.MigElemComm != nil {
			// Rebalance transfers: the old owner ships element grid state
			// plus resident particles to the new owner, once per epoch (not
			// per iteration — ownership moves and stays moved).
			migScratch = migrationEntriesAt(wl, k, migScratch)
			for _, e := range migScratch {
				t := p.Machine.migrationTime(e.elems, e.parts, pointsPerElem)
				outbox[e.src] = append(outbox[e.src], outMsg{dst: e.dst, time: t, mig: true})
				migBytes += p.Machine.migrationBytes(e.elems, e.parts, pointsPerElem)
			}
		}

		q = q[:0]
		maxCompute, err := memo.frame(wl, k, sampleEvery, compute, pred.RankBusy)
		if err != nil {
			return nil, err
		}
		for r, c := range compute {
			push(clock+c, evComputeDone, r, false)
		}
		// baseEnd is the barrier ignoring migration arrivals; intervalEnd
		// includes them. Their difference is the interval's migration cost.
		baseEnd := clock
		intervalEnd := clock
		for len(q) > 0 {
			ev := heap.Pop(&q).(event)
			if ev.time > intervalEnd {
				intervalEnd = ev.time
			}
			if !ev.mig && ev.time > baseEnd {
				baseEnd = ev.time
			}
			if ev.kind != evComputeDone {
				continue
			}
			// Emit this rank's outgoing messages for the interval:
			// migrations recorded into frame k, and the interval's ghost
			// updates (re-sent every iteration of the superstep).
			for _, m := range outbox[ev.rank] {
				push(ev.time+m.time, evMsgArrive, m.dst, m.mig)
			}
		}
		wall := intervalEnd - clock
		pred.IntervalWall = append(pred.IntervalWall, wall)
		pred.Compute = append(pred.Compute, maxCompute)
		pred.Comm = append(pred.Comm, baseEnd-clock-maxCompute)
		if wl.MigElemComm != nil {
			pred.Migration = append(pred.Migration, intervalEnd-baseEnd)
		}
		clock = intervalEnd
		m.end(wall)
	}
	pred.Total = clock
	if wl.MigElemComm != nil {
		m.migration(pred.MigrationSec(), migBytes)
	}
	m.replay(int64(ranks)*int64(wl.RealComp.Frames()), memo.evals)
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

// A model that fails on one pair makes SimulateBSP and the event oracle
// fail with that error — whether the pair is a busy rank's or the idle
// (0, 0) one the memo short-circuits — and leaves the replay counters
// untouched.
func TestSimulateModelErrorPropagates(t *testing.T) {
	wl := countedWorkload()
	for _, pair := range [][2]int64{{5, 1}, {7, 0}, {0, 0}} {
		p := trainedPlatform(t)
		p.Models[kernels.Projection.Name] = poisonedModel{
			Model: p.Models[kernels.Projection.Name], np: pair[0], ngp: pair[1],
		}
		p.Obs = obs.New()
		for name, sim := range map[string]func(*core.Workload) (*Prediction, error){
			"event": func(wl *core.Workload) (*Prediction, error) { return oracleSimulateEvent(p, wl) },
			"bsp":   p.SimulateBSP,
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
// pair count to bsst.iter_evals, once.
func TestReplayCounters(t *testing.T) {
	p := trainedPlatform(t)
	p.Obs = obs.New()
	wl := countedWorkload()
	for i := 0; i < 3; i++ {
		if _, err := p.SimulateBSP(wl); err != nil {
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

package bsst

import (
	"fmt"
	"time"

	"picpredict/internal/core"
	"picpredict/internal/obs"
	"picpredict/internal/sparse"
)

// simMetrics carries a replay's per-interval instruments; nil when the
// platform has no registry attached.
type simMetrics struct {
	intervals  *obs.Counter
	cells      *obs.Counter   // rank-intervals replayed
	iterEvals  *obs.Counter   // IterTime evaluations (memo misses)
	simNs      *obs.Histogram // predicted (simulated) interval wall, in ns
	wallNs     *obs.Histogram // simulator's own per-interval compute cost
	migNs      *obs.Histogram // predicted rebalance-migration cost per run
	migBytes   *obs.Counter   // modeled wire bytes of rebalance transfers
	intervalT0 time.Time
}

func (p *Platform) simMetrics() *simMetrics {
	if p.Obs == nil {
		return nil
	}
	return &simMetrics{
		intervals: p.Obs.Counter("bsst.intervals"),
		cells:     p.Obs.Counter(obs.BsstRankIntervals),
		iterEvals: p.Obs.Counter(obs.BsstIterEvals),
		simNs:     p.Obs.Histogram("bsst.interval_sim_ns"),
		wallNs:    p.Obs.Histogram("bsst.interval_wall_ns"),
		migNs:     p.Obs.Histogram(obs.RebalanceMigrationNs),
		migBytes:  p.Obs.Counter(obs.RebalanceMigratedBytes),
	}
}

// begin marks the start of one interval's replay.
func (m *simMetrics) begin() {
	if m == nil {
		return
	}
	m.intervalT0 = time.Now() //lint:allow determinism wall-clock observability timing; never feeds the simulated clock
}

// end records one interval: simulated seconds (the prediction) alongside
// the wall nanoseconds the simulator itself spent producing it.
func (m *simMetrics) end(simulatedSec float64) {
	if m == nil {
		return
	}
	m.intervals.Inc()
	m.simNs.Observe(int64(simulatedSec * 1e9))
	m.wallNs.Observe(time.Since(m.intervalT0).Nanoseconds())
}

// replay records one completed replay: its rank-intervals and the IterTime
// evaluations its memo made.
func (m *simMetrics) replay(cells, iterEvals int64) {
	if m == nil {
		return
	}
	m.cells.Add(cells)
	m.iterEvals.Add(iterEvals)
}

// migration records one run's total predicted rebalance-migration cost and
// the modeled wire bytes behind it.
func (m *simMetrics) migration(totalSec, bytes float64) {
	if m == nil {
		return
	}
	m.migNs.Observe(int64(totalSec * 1e9))
	m.migBytes.Add(int64(bytes))
}

// iterKey is one rank-interval's (real, ghost) particle counts.
type iterKey struct{ np, ngp int64 }

// iterMemo evaluates IterTime once per distinct (np, ngp) pair of one
// replay. A replay fixes the platform and R, so IterTime is a pure function
// of the pair and a memoized value has the bits a fresh evaluation would
// have. A clustered bed leaves most ranks on a few pairs, idle (0, 0) most
// of all, which gets a field of its own instead of a map lookup. The memo
// lives for one call, so concurrent replays share nothing to invalidate.
type iterMemo struct {
	p       *Platform
	ranks   int
	idle    float64 // IterTime(0, 0), valid once idleSet
	idleSet bool
	times   map[iterKey]float64
	evals   int64 // IterTime evaluations: the memo's misses
}

func newIterMemo(p *Platform, ranks int) *iterMemo {
	return &iterMemo{p: p, ranks: ranks, times: make(map[iterKey]float64)}
}

// iterTime is IterTime(np, ngp, R), evaluated on the pair's first use.
// Errors are not memoized: the replay ends at the first one.
func (c *iterMemo) iterTime(np, ngp int64) (float64, error) {
	idle := np == 0 && ngp == 0
	if idle && c.idleSet {
		return c.idle, nil
	}
	key := iterKey{np, ngp}
	if t, ok := c.times[key]; ok {
		return t, nil
	}
	t, err := c.p.IterTime(np, ngp, c.ranks)
	if err != nil {
		return 0, err
	}
	c.evals++
	if idle {
		c.idle, c.idleSet = t, true
	} else {
		c.times[key] = t
	}
	return t, nil
}

// frame fills compute[r] with rank r's compute time over interval k
// (SampleEvery iterations of IterTime), adds it to busy[r], and returns the
// interval's largest compute time. SimulateBSP and the discrete-event oracle
// of its tests both take their per-rank compute from here, in rank order, so
// an error names the same rank in either.
func (c *iterMemo) frame(wl *core.Workload, k, sampleEvery int, compute, busy []float64) (float64, error) {
	reals := wl.RealComp.Frame(k)
	var ghosts []int64
	if wl.GhostComp != nil {
		ghosts = wl.GhostComp.Frame(k)
	}
	var maxCompute float64
	for r := range compute {
		var ngp int64
		if ghosts != nil {
			ngp = ghosts[r]
		}
		it, err := c.iterTime(reals[r], ngp)
		if err != nil {
			return 0, err
		}
		compute[r] = float64(sampleEvery) * it
		busy[r] += compute[r]
		if compute[r] > maxCompute {
			maxCompute = compute[r]
		}
	}
	return maxCompute, nil
}

// migEntry is one (src,dst) rebalance transfer of an interval: the element
// and resident-particle volumes merged from the workload's two migration
// matrices (the generator appends them in lockstep; both entry lists are
// sorted by (src,dst), and particle pairs are a subset of element pairs).
type migEntry struct {
	src, dst     int
	elems, parts int64
}

// migrationEntriesAt merges interval k's element and particle migration
// matrices into per-pair transfer volumes.
func migrationEntriesAt(wl *core.Workload, k int, dst []migEntry) []migEntry {
	dst = dst[:0]
	ee := wl.MigElemComm.At(k).Entries()
	pe := wl.MigPartComm.At(k).Entries()
	j := 0
	for _, e := range ee {
		m := migEntry{src: e.Src, dst: e.Dst, elems: e.Count}
		for j < len(pe) && (pe[j].Src < e.Src || (pe[j].Src == e.Src && pe[j].Dst < e.Dst)) {
			j++
		}
		if j < len(pe) && pe[j].Src == e.Src && pe[j].Dst == e.Dst {
			m.parts = pe[j].Count
			j++
		}
		dst = append(dst, m)
	}
	return dst
}

// SimulateBSP replays a generated workload and returns the predicted
// execution profile. Components are processor ranks, and each sampling
// interval is one bulk-synchronous superstep whose wall time is, in closed
// form, the max over ranks of
//
//	max(compute_r, max over senders s→r (compute_s + msgTime(s, r))).
//
// Every prediction takes this path. The tests check it against a
// discrete-event replay of the same supersteps. Per-rank compute comes
// from the replay's IterTime memo, and each comm barrier is a max folded
// straight over the sealed sparse frame, in its sorted order and without
// allocating.
func (p *Platform) SimulateBSP(wl *core.Workload) (*Prediction, error) {
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
	realMsg := func(e sparse.Entry) float64 {
		return compute[e.Src] + p.Machine.transferTime(e.Count)
	}
	ghostMsg := func(e sparse.Entry) float64 {
		return compute[e.Src] + float64(sampleEvery)*p.Machine.transferTime(e.Count)
	}
	for k := 0; k < wl.RealComp.Frames(); k++ {
		m.begin()
		maxCompute, err := memo.frame(wl, k, sampleEvery, compute, pred.RankBusy)
		if err != nil {
			return nil, err
		}
		base := wl.RealComm.At(k).MaxOver(maxCompute, realMsg)
		if wl.GhostComm != nil {
			base = wl.GhostComm.At(k).MaxOver(base, ghostMsg)
		}
		// Migration messages extend the barrier past the compute+comm base;
		// the excess is the interval's priced rebalance cost.
		wall := base
		if wl.MigElemComm != nil {
			migScratch = migrationEntriesAt(wl, k, migScratch)
			for _, e := range migScratch {
				t := compute[e.src] + p.Machine.migrationTime(e.elems, e.parts, pointsPerElem)
				if t > wall {
					wall = t
				}
				migBytes += p.Machine.migrationBytes(e.elems, e.parts, pointsPerElem)
			}
			pred.Migration = append(pred.Migration, wall-base)
		}
		pred.IntervalWall = append(pred.IntervalWall, wall)
		pred.Compute = append(pred.Compute, maxCompute)
		pred.Comm = append(pred.Comm, base-maxCompute)
		pred.Total += wall
		m.end(wall)
	}
	if wl.MigElemComm != nil {
		m.migration(pred.MigrationSec(), migBytes)
	}
	m.replay(int64(ranks)*int64(wl.RealComp.Frames()), memo.evals)
	return pred, nil
}

package core

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"picpredict/internal/geom"
	"picpredict/internal/mapping"
	"picpredict/internal/obs"
	"picpredict/internal/sparse"
	"picpredict/internal/tile"
	"picpredict/internal/trace"
)

// Config is the Dynamic Workload Generator's configuration file (§II-A): the
// system configuration (processor count, carried by the Mapper) plus the
// application configuration relevant to workload synthesis.
type Config struct {
	// Mapper is the particle mapping algorithm to mimic.
	Mapper mapping.Mapper
	// FilterRadius is the projection filter size; it controls ghost
	// particle creation. Zero disables ghost workload generation. Ghost
	// matrices are produced when the radius is positive and the Mapper
	// implements mapping.ConcurrentGhostSource.
	FilterRadius float64
	// Workers sets the worker-goroutine count of the per-frame matrix
	// fills (0 or 1 runs serially). Workloads are identical for any value.
	Workers int
}

// Workload is the generator's output: computation and communication
// matrices for real and ghost particles. Every communication frame is
// sealed (sorted and immutable) as soon as it is filled, so a finished
// workload is never mutated.
type Workload struct {
	// Ranks is the processor count R the workload was generated for.
	Ranks int
	// NumParticles is N_p, constant across the trace.
	NumParticles int
	// SampleEvery is the iteration distance between consecutive frames.
	SampleEvery int

	// RealComp[r][k]: real particles residing on rank r at interval k.
	RealComp *CompMatrix
	// GhostComp[r][k]: ghost particles materialised on rank r at interval
	// k. Nil when ghost generation is disabled.
	GhostComp *CompMatrix
	// RealComm.At(k): particles that moved between rank pairs between
	// intervals k−1 and k (interval 0 is empty).
	RealComm *sparse.Series
	// GhostComm.At(k): ghost copies sent from home ranks to ghost ranks
	// at interval k (ghosts are re-created every interval, so this is
	// per-frame, not per-transition). Nil when ghosts are disabled.
	GhostComm *sparse.Series

	// MigElemComm.At(k) / MigPartComm.At(k): elements and resident
	// particles whose ownership moved between rank pairs when the mapper
	// rebalanced at interval k. Non-nil (with empty matrices on epoch-free
	// intervals) exactly when the mapper is a mapping.MigrationSource; nil
	// for static mappings. Unlike RealComm these are *state transfers* the
	// rebalancer itself causes, priced separately by the simulator.
	MigElemComm *sparse.Series
	MigPartComm *sparse.Series
}

// ResidentBytes returns the heap the workload's matrices hold: 8 B per
// dense computation-matrix cell and frame iteration, 16 B per sealed
// communication entry. Slice headers and per-frame bookkeeping, a few
// dozen bytes per frame, are left out.
func (wl *Workload) ResidentBytes() int64 {
	cells := len(wl.RealComp.data) + len(wl.RealComp.iterations)
	if wl.GhostComp != nil {
		cells += len(wl.GhostComp.data) + len(wl.GhostComp.iterations)
	}
	entries := 0
	for _, s := range []*sparse.Series{wl.RealComm, wl.GhostComm, wl.MigElemComm, wl.MigPartComm} {
		if s != nil {
			entries += s.NumNonZero()
		}
	}
	return 8*int64(cells) + 16*int64(entries)
}

// Generator synthesises a Workload from trace frames. Feed frames in order
// with Frame, then call Finish. A Generator is single-use.
type Generator struct {
	cfg    Config
	ghosts mapping.ConcurrentGhostSource // non-nil iff ghost matrices are produced
	mig    mapping.MigrationSource       // non-nil iff the mapper reports migrations

	wl       *Workload
	prev     []int // rank of each particle in the previous frame
	cur      []int
	frames   int
	epochs   int // frames whose drained migrations were non-empty
	finished bool

	tb      tile.Builder
	scratch []tileScratch // per-worker tile scratch; [0] serves the serial fill

	// Every frame's comm matrices are filled into these pooled
	// accumulators, Reset per frame, and sealed into the workload; nil
	// where the workload has no such matrix.
	comm, ghostComm, migElem, migPart *sparse.Acc

	// parallel-fill state (Workers > 1)
	partComp      [][]int64     // per-worker real-comp partials
	partGhost     [][]int64     // per-worker ghost-comp partials
	partComm      []*sparse.Acc // per-worker real-comm partials, pooled across frames
	partGhostComm []*sparse.Acc // per-worker ghost-comm partials, pooled across frames
	parErrs       []error

	// observability (nil instruments when disabled; see SetObs)
	obsOn          bool
	serialFillNs   *obs.Histogram
	parallelFillNs *obs.Histogram
	obsFrames      *obs.Counter
	obsTiles       *obs.Counter
	ghostQueries   *obs.Counter
	ghostCopies    *obs.Counter
	obsMigElems    *obs.Counter
	obsMigParts    *obs.Counter
	obsEpochs      *obs.Counter
}

// SetObs attaches an observability registry: per-frame fill latency lands
// in core.fill_serial_ns / core.fill_parallel_ns (the two histograms are
// the serial-vs-Workers speedup measurement), frame and ghost-query/copy
// totals in core.* counters, and core.tiles counts the cell tiles the fill
// walked — ghost frames only, since ghost-less frames are not tiled. Call
// before the first Frame; a nil registry leaves the generator
// uninstrumented (the default).
func (g *Generator) SetObs(reg *obs.Registry) {
	if reg == nil {
		return
	}
	g.obsOn = true
	g.serialFillNs = reg.Histogram("core.fill_serial_ns")
	g.parallelFillNs = reg.Histogram("core.fill_parallel_ns")
	g.obsFrames = reg.Counter("core.frames")
	g.obsTiles = reg.Counter("core.tiles")
	g.ghostQueries = reg.Counter("core.ghost_queries")
	g.ghostCopies = reg.Counter("core.ghost_copies")
	g.obsMigElems = reg.Counter(obs.RebalanceMigratedElements)
	g.obsMigParts = reg.Counter(obs.RebalanceMigratedParticles)
	g.obsEpochs = reg.Counter(obs.RebalanceEpochs)
}

// NewGenerator validates cfg and prepares a generator.
func NewGenerator(cfg Config) (*Generator, error) {
	if cfg.Mapper == nil {
		return nil, errors.New("core: Config.Mapper is required")
	}
	if cfg.Mapper.Ranks() <= 0 {
		return nil, fmt.Errorf("core: mapper reports %d ranks", cfg.Mapper.Ranks())
	}
	if cfg.FilterRadius < 0 {
		return nil, fmt.Errorf("core: negative filter radius %g", cfg.FilterRadius)
	}
	g := &Generator{cfg: cfg, scratch: make([]tileScratch, max(1, cfg.Workers))}
	if gs, ok := cfg.Mapper.(mapping.ConcurrentGhostSource); ok && cfg.FilterRadius > 0 {
		g.ghosts = gs
	}
	r := cfg.Mapper.Ranks()
	g.wl = &Workload{
		Ranks:    r,
		RealComp: NewCompMatrix(r),
		RealComm: sparse.NewSeries(r),
	}
	g.comm = sparse.NewAcc(r)
	if g.ghosts != nil {
		g.wl.GhostComp = NewCompMatrix(r)
		g.wl.GhostComm = sparse.NewSeries(r)
		g.ghostComm = sparse.NewAcc(r)
	}
	if ms, ok := cfg.Mapper.(mapping.MigrationSource); ok {
		g.mig = ms
		g.wl.MigElemComm = sparse.NewSeries(r)
		g.wl.MigPartComm = sparse.NewSeries(r)
		g.migElem, g.migPart = sparse.NewAcc(r), sparse.NewAcc(r)
	}
	return g, nil
}

// Frame processes one trace frame: it mimics the mapping algorithm to find
// each particle's residing processor R_p, updates the computation counters,
// and, by comparing with the previous frame's assignment, the communication
// counters (§II-A). A frame with a NaN or infinite coordinate is rejected:
// no mapping or ghost query can place such a particle.
func (g *Generator) Frame(iteration int, pos []geom.Vec3) error {
	if g.finished {
		return errors.New("core: Frame after Finish")
	}
	if g.frames == 0 {
		g.wl.NumParticles = len(pos)
		g.prev = make([]int, len(pos))
		g.cur = make([]int, len(pos))
	} else if len(pos) != g.wl.NumParticles {
		return fmt.Errorf("core: frame %d has %d particles, first frame had %d",
			g.frames, len(pos), g.wl.NumParticles)
	}

	for i, p := range pos {
		if !p.IsFinite() {
			return fmt.Errorf("core: frame %d: particle %d at %v is not finite", g.frames, i, p)
		}
	}
	if err := g.cfg.Mapper.Assign(g.cur, pos); err != nil {
		return fmt.Errorf("core: frame %d: %w", g.frames, err)
	}

	comp := g.wl.RealComp.AppendFrame(iteration)
	g.comm.Reset()
	var gcomp []int64
	if g.ghosts != nil {
		gcomp = g.wl.GhostComp.AppendFrame(iteration)
		g.ghostComm.Reset()
	}
	if g.mig != nil {
		// The mapper just ran this frame's (possible) rebalance inside
		// Assign; drain what moved into this interval's migration matrices.
		g.migElem.Reset()
		g.migPart.Reset()
		migs := g.mig.DrainMigrations()
		if len(migs) > 0 {
			g.epochs++
		}
		for _, m := range migs {
			if err := g.migElem.Add(m.Src, m.Dst, m.Elements); err != nil {
				return fmt.Errorf("core: frame %d: %w", g.frames, err)
			}
			if err := g.migPart.Add(m.Src, m.Dst, m.Particles); err != nil {
				return fmt.Errorf("core: frame %d: %w", g.frames, err)
			}
			if g.obsOn {
				g.obsMigElems.Add(m.Elements)
				g.obsMigParts.Add(m.Particles)
			}
		}
	}

	workers := 1
	if w := g.cfg.Workers; w > 1 && len(pos) >= 4*w {
		workers = w
	}
	var t0 time.Time
	if g.obsOn {
		t0 = time.Now() //lint:allow determinism wall-clock fill timing for the obs layer; workload contents never depend on it
	}
	if err := g.fill(pos, workers, comp, g.comm, gcomp, g.ghostComm); err != nil {
		return fmt.Errorf("core: frame %d: %w", g.frames, err)
	}
	g.wl.RealComm.Append(g.comm.Seal())
	if g.ghosts != nil {
		g.wl.GhostComm.Append(g.ghostComm.Seal())
	}
	if g.mig != nil {
		g.wl.MigElemComm.Append(g.migElem.Seal())
		g.wl.MigPartComm.Append(g.migPart.Seal())
	}
	if g.obsOn {
		ns := time.Since(t0).Nanoseconds()
		if workers > 1 {
			g.parallelFillNs.Observe(ns)
		} else {
			g.serialFillNs.Observe(ns)
		}
		g.obsFrames.Inc()
		if g.ghosts != nil {
			// One ghost query per particle per frame; the copies actually
			// materialised are this frame's ghost-comp row sum.
			g.ghostQueries.Add(int64(len(pos)))
			var copies int64
			for _, v := range gcomp {
				copies += v
			}
			g.ghostCopies.Add(copies)
		}
	}

	g.prev, g.cur = g.cur, g.prev
	g.frames++
	return nil
}

// fill fills this frame's slice of the workload matrices. The frame's work
// units are cut into one contiguous range per worker: the serial case fills
// its single range straight into the frame matrices, while workers > 1 fill
// private partial matrices that are then reduced in worker order. Every
// counter is an integer, so the workload is identical for any worker count.
//
// Ghost frames group the particles into cell tiles and run fillTileRange,
// which answers each tile's ghost query in one batched call — the
// per-particle spatial work the tiling amortises. Ghost-less frames have
// no spatial work to share, so they run fillIndexRange over the particles
// in index order instead of paying for the counting sort.
func (g *Generator) fill(pos []geom.Vec3, workers int, comp []int64, comm *sparse.Acc, gcomp []int64, gcomm *sparse.Acc) error {
	withComm := g.frames > 0
	var tl *tile.Tiling
	units := len(pos)
	if g.ghosts != nil {
		tl = g.buildTiling(pos)
		units = tl.NumTiles()
		g.obsTiles.Add(int64(units))
	}
	body := func(lo, hi int, src mapping.GhostSource, scr *tileScratch, comp []int64, comm *sparse.Acc, gcomp []int64, gcomm *sparse.Acc) error {
		if tl == nil {
			return g.fillIndexRange(lo, hi, comp, comm, withComm)
		}
		return g.fillTileRange(tl, lo, hi, pos, src, scr, comp, comm, gcomp, gcomm, withComm)
	}
	if workers == 1 {
		return body(0, units, g.ghosts, &g.scratch[0], comp, comm, gcomp, gcomm)
	}

	g.ensureParallelState()
	var ranges [][2]int
	var views []mapping.GhostSource
	if tl != nil {
		ranges = tl.Ranges(workers)
		views = g.ghosts.GhostViews(workers)
	}
	errs := g.parErrs
	clear(errs)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lo, hi := units*w/workers, units*(w+1)/workers
			if ranges != nil {
				lo, hi = ranges[w][0], ranges[w][1]
			}
			pc, pm := g.partComp[w], g.partComm[w]
			clear(pc)
			pm.Reset()
			var pg []int64
			var pgm *sparse.Acc
			var src mapping.GhostSource
			if views != nil {
				pg, pgm, src = g.partGhost[w], g.partGhostComm[w], views[w]
				clear(pg)
				pgm.Reset()
			}
			errs[w] = body(lo, hi, src, &g.scratch[w], pc, pm, pg, pgm)
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return g.reducePartials(comp, comm, gcomp, gcomm, withComm)
}

// ensureParallelState allocates the per-worker partial matrices once;
// partial accumulators are pooled and Reset per frame, so steady-state
// frames allocate nothing here.
func (g *Generator) ensureParallelState() {
	if g.partComp != nil {
		return
	}
	workers := g.cfg.Workers
	ranks := g.wl.Ranks
	g.partComp = make([][]int64, workers)
	g.partComm = make([]*sparse.Acc, workers)
	for w := range g.partComp {
		g.partComp[w] = make([]int64, ranks)
		g.partComm[w] = sparse.NewAcc(ranks)
	}
	if g.ghosts != nil {
		g.partGhost = make([][]int64, workers)
		g.partGhostComm = make([]*sparse.Acc, workers)
		for w := range g.partGhost {
			g.partGhost[w] = make([]int64, ranks)
			g.partGhostComm[w] = sparse.NewAcc(ranks)
		}
	}
	g.parErrs = make([]error, workers)
}

// reducePartials folds the per-worker partials into the frame matrices in
// fixed worker order. Integer sums: the order cannot change the result,
// it only makes runs reproducible instrumentation-wise.
func (g *Generator) reducePartials(comp []int64, comm *sparse.Acc, gcomp []int64, gcomm *sparse.Acc, withComm bool) error {
	for w := range g.partComp {
		for i, v := range g.partComp[w] {
			comp[i] += v
		}
		if withComm {
			if err := g.partComm[w].AddInto(comm); err != nil {
				return err
			}
		}
		if g.ghosts != nil {
			for i, v := range g.partGhost[w] {
				gcomp[i] += v
			}
			if err := g.partGhostComm[w].AddInto(gcomm); err != nil {
				return err
			}
		}
	}
	return nil
}

// fillIndexRange is the ghost-less fill body: particles [lo, hi) in index
// order add to their rank's comp row and, after the first frame, each
// particle whose rank changed adds one (previous, current) comm entry.
func (g *Generator) fillIndexRange(lo, hi int, comp []int64, comm *sparse.Acc, withComm bool) error {
	cur := g.cur[lo:hi]
	for _, r := range cur {
		comp[r]++
	}
	if !withComm {
		return nil
	}
	prev := g.prev[lo:hi]
	for i, r := range cur {
		if p := prev[i]; p != r {
			if err := comm.Add(p, r, 1); err != nil {
				return err
			}
		}
	}
	return nil
}

// tileCellRadii sizes the tiling cell relative to the filter radius: tiles
// of 2r keep each tile's candidate window (tile box inflated by r) small
// enough that a handful of rank groups covers it, while holding hundreds of
// particles at realistic densities.
const tileCellRadii = 2.0

// buildTiling groups this frame's particles by grid cell. The tile count is
// capped at the particle count so the CSR header and counting sort stay
// linear in the frame size.
func (g *Generator) buildTiling(pos []geom.Vec3) *tile.Tiling {
	return g.tb.Build(pos, tileCellRadii*g.cfg.FilterRadius, len(pos)+1)
}

// pairSlotBits sizes the fill's pair tables at pairSlots slots, 80 KiB a
// table.
const (
	pairSlotBits = 12
	pairSlots    = 1 << pairSlotBits
)

// pairTable tallies one fill range's (src, dst) → count pairs in a fixed
// direct-mapped table before they reach the sparse accumulator, so a
// repeated pair costs one slot increment instead of a hash-map update, and
// the accumulator sees each surviving pair once per range. A pair whose
// slot holds another pair evicts that entry straight into the accumulator,
// so the table never grows: its memory is fixed whatever the range spans.
// Every update is an integer add, so the sealed matrix is the same for any
// slot count, eviction pattern or flush point.
type pairTable struct {
	key  [pairSlots]uint64 // packed (src, dst) of each occupied slot
	n    [pairSlots]int64  // count per slot; 0 marks a free slot
	used [pairSlots]int32  // occupied slot numbers, in first-use order
	nUse int
}

func (t *pairTable) add(src, dst int, m *sparse.Acc) error {
	k := uint64(src)<<32 | uint64(uint32(dst))
	s := int32((k * 0x9E3779B97F4A7C15) >> (64 - pairSlotBits)) // multiplicative hash
	switch {
	case t.n[s] == 0:
		t.used[t.nUse] = s
		t.nUse++
	case t.key[s] != k:
		if err := t.evict(s, m); err != nil {
			return err
		}
	}
	t.key[s] = k
	t.n[s]++
	return nil
}

// evict moves slot s's count into m and leaves the slot empty.
func (t *pairTable) evict(s int32, m *sparse.Acc) error {
	k := t.key[s]
	err := m.Add(int(k>>32), int(uint32(k)), t.n[s])
	t.n[s] = 0
	return err
}

// flush moves every occupied slot into m.
func (t *pairTable) flush(m *sparse.Acc) error {
	for _, s := range t.used[:t.nUse] {
		if err := t.evict(s, m); err != nil {
			return err
		}
	}
	t.nUse = 0
	return nil
}

// tileScratch is the per-goroutine working set of the tiled fill: the
// batched ghost-query output buffers and the pair tables.
type tileScratch struct {
	flat       []int
	offs       []int32
	commPairs  pairTable
	ghostPairs pairTable
}

// fillTileRange fills the matrices from tiles [t0, t1) of tl. Per tile it
// walks the member particles once for the dense comp row and the migration
// pairs, then answers the tile's ghost query in one batched call and folds
// the per-particle rank sets into the ghost row and copy pairs. The pair
// tables flush into the accumulators once, after the last tile. All
// updates are integer adds, so any tile partition produces the results of
// the flat per-particle loop bit-for-bit.
func (g *Generator) fillTileRange(tl *tile.Tiling, t0, t1 int, pos []geom.Vec3, src mapping.GhostSource, scr *tileScratch,
	comp []int64, comm *sparse.Acc, gcomp []int64, gcomm *sparse.Acc, withComm bool) error {
	radius := g.cfg.FilterRadius
	for t := t0; t < t1; t++ {
		ids := tl.Tile(t)
		if len(ids) == 0 {
			continue
		}
		for _, i := range ids {
			r := g.cur[i]
			comp[r]++
			if withComm {
				if p := g.prev[i]; p != r {
					if err := scr.commPairs.add(p, r, comm); err != nil {
						return err
					}
				}
			}
		}
		scr.flat, scr.offs = src.GhostRanksTile(scr.flat[:0], scr.offs[:0], ids, pos, g.cur, radius)
		prev := 0
		for j, i := range ids {
			end := int(scr.offs[j])
			home := g.cur[i]
			for _, r := range scr.flat[prev:end] {
				gcomp[r]++
				if err := scr.ghostPairs.add(home, r, gcomm); err != nil {
					return err
				}
			}
			prev = end
		}
	}
	if err := scr.commPairs.flush(comm); err != nil {
		return err
	}
	return scr.ghostPairs.flush(gcomm)
}

// Finish finalises and returns the workload. Frame may not be called again.
func (g *Generator) Finish() (*Workload, error) {
	if g.finished {
		return nil, errors.New("core: Finish called twice")
	}
	g.finished = true
	if g.obsOn {
		g.obsEpochs.Add(int64(g.epochs))
	}
	its := g.wl.RealComp.Iterations()
	if len(its) >= 2 {
		g.wl.SampleEvery = its[1] - its[0]
	}
	if err := g.wl.RealComp.Validate(); err != nil {
		return nil, err
	}
	return g.wl, nil
}

// Run streams every frame of a trace through the generator and finishes.
// It is the one-call path from a trace file to a workload.
func Run(cfg Config, r *trace.Reader) (*Workload, error) {
	g, err := NewGenerator(cfg)
	if err != nil {
		return nil, err
	}
	buf := make([]geom.Vec3, r.Header().NumParticles)
	for {
		it, err := r.Next(buf)
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, err
		}
		if err := g.Frame(it, buf); err != nil {
			return nil, err
		}
	}
	return g.Finish()
}

// RunFrames feeds in-memory frames (iterations[i] paired with
// positions[i*np:(i+1)*np]) through a generator — the path used when the
// trace was just produced by a simulation and is still in memory.
func RunFrames(cfg Config, iterations []int, positions []geom.Vec3, np int) (*Workload, error) {
	if np <= 0 {
		return nil, fmt.Errorf("core: non-positive particle count %d", np)
	}
	if len(positions) != len(iterations)*np {
		return nil, fmt.Errorf("core: %d positions for %d frames × %d particles",
			len(positions), len(iterations), np)
	}
	g, err := NewGenerator(cfg)
	if err != nil {
		return nil, err
	}
	for k, it := range iterations {
		if err := g.Frame(it, positions[k*np:(k+1)*np]); err != nil {
			return nil, err
		}
	}
	return g.Finish()
}

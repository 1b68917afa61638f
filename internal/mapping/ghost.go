package mapping

import (
	"slices"

	"picpredict/internal/geom"
	"picpredict/internal/mesh"
)

// GhostSource is implemented by mappers that can also answer ghost-particle
// queries: given a particle, which ranks other than its home hold domain
// data inside its projection filter radius? The Dynamic Workload Generator
// uses it to build the ghost-particle computation and communication
// matrices. Queries are made after Assign for the same frame, so mappers
// may answer from per-frame state (bin boxes, for instance).
type GhostSource interface {
	// GhostRanks appends the ghost ranks of a particle at pos with home
	// rank home to dst and returns the extended slice (no duplicates,
	// home excluded).
	GhostRanks(dst []int, pos geom.Vec3, radius float64, home int) []int

	// GhostRanksTile answers the ghost query for a whole tile of spatially
	// adjacent particles in one batched call. Implementations hoist the
	// spatial candidate scan (the elements or bins near the tile) out of
	// the per-particle loop, so one intersection setup serves every
	// particle in the tile.
	//
	// For each particle index ids[j] in order, it appends that particle's
	// ghost ranks (the same *set* GhostRanks would return for pos[ids[j]]
	// with home[ids[j]] — order within the set is unspecified) to flat and
	// appends the new len(flat) to offs, so particle ids[j]'s ranks are
	// flat[offs[j-1]:offs[j]], reading offs[-1] as len(flat) at entry.
	// Callers normally pass flat[:0], offs[:0] per tile.
	GhostRanksTile(flat []int, offs []int32, ids []int32, pos []geom.Vec3, home []int, radius float64) ([]int, []int32)
}

// ConcurrentGhostSource is a GhostSource whose per-frame ghost queries can
// be answered by independent view objects, enabling the workload
// generator's parallel fill path: each worker goroutine queries its own
// view while they all share the frame's read-only spatial structures.
type ConcurrentGhostSource interface {
	GhostSource
	// GhostViews returns n query objects that are safe to use
	// concurrently with one another (though each individual view is not
	// itself safe for concurrent use). Views answer from the state of the
	// most recent Assign call and are invalidated by the next one; any
	// shared read-only structure they need is built eagerly here, before
	// the caller fans out.
	GhostViews(n int) []GhostSource
}

// GhostRanks implements GhostSource for element-based mapping: ghost ranks
// are the owners of the spectral elements the filter ball touches. The
// query object is created lazily on first use.
func (em *ElementMapper) GhostRanks(dst []int, pos geom.Vec3, radius float64, home int) []int {
	return em.ownersQuery().Ranks(dst, pos, radius, home)
}

// GhostRanksTile implements GhostSource for element-based mapping via
// mesh.SphereOwners.RanksTile: the candidate elements of the tile's search
// window are gathered and rank-grouped once, then each particle runs an
// early-exit per-rank membership test.
func (em *ElementMapper) GhostRanksTile(flat []int, offs []int32, ids []int32, pos []geom.Vec3, home []int, radius float64) ([]int, []int32) {
	return em.ownersQuery().RanksTile(flat, offs, ids, pos, home, radius)
}

func (em *ElementMapper) ownersQuery() *mesh.SphereOwners {
	if em.owners == nil {
		em.owners = mesh.NewSphereOwners(em.Mesh, em.Decomp)
	}
	return em.owners
}

// GhostViews implements ConcurrentGhostSource for element-based mapping:
// every view is its own SphereOwners query over the shared (immutable) mesh
// and decomposition. Views are cached — the decomposition never changes, so
// they stay valid across frames.
func (em *ElementMapper) GhostViews(n int) []GhostSource {
	for len(em.views) < n {
		em.views = append(em.views, sphereGhostView{q: mesh.NewSphereOwners(em.Mesh, em.Decomp)})
	}
	out := make([]GhostSource, n)
	for i := range out {
		out[i] = em.views[i]
	}
	return out
}

// sphereGhostView adapts a private SphereOwners query to GhostSource.
type sphereGhostView struct{ q *mesh.SphereOwners }

func (v sphereGhostView) GhostRanks(dst []int, pos geom.Vec3, radius float64, home int) []int {
	return v.q.Ranks(dst, pos, radius, home)
}

func (v sphereGhostView) GhostRanksTile(flat []int, offs []int32, ids []int32, pos []geom.Vec3, home []int, radius float64) ([]int, []int32) {
	return v.q.RanksTile(flat, offs, ids, pos, home, radius)
}

// GhostRanks implements GhostSource for bin-based mapping: with
// particle–grid locality decoupled, a particle's influence reaches the
// ranks whose bin regions its filter ball intersects — the particles in
// those bins need the overlapping grid data (§III-C: "transferring
// associated grid data between the processors"). Answers are based on the
// bins of the most recent Assign call, accelerated by a uniform-grid index
// over bin boxes so each query touches only nearby bins (workload
// generation runs millions of these queries per trace).
func (bm *BinMapper) GhostRanks(dst []int, pos geom.Vec3, radius float64, home int) []int {
	if radius <= 0 || len(bm.lastBins) == 0 {
		return dst
	}
	return bm.ownBinView().GhostRanks(dst, pos, radius, home)
}

// GhostRanksTile implements GhostSource for bin-based mapping: the
// candidate bins of the tile's search window are deduplicated once, with
// their boxes copied beside them, then each particle tests every candidate
// bin in turn (see binGhostView.GhostRanksTile).
func (bm *BinMapper) GhostRanksTile(flat []int, offs []int32, ids []int32, pos []geom.Vec3, home []int, radius float64) ([]int, []int32) {
	if radius <= 0 || len(bm.lastBins) == 0 {
		for range ids {
			offs = append(offs, int32(len(flat)))
		}
		return flat, offs
	}
	return bm.ownBinView().GhostRanksTile(flat, offs, ids, pos, home, radius)
}

func (bm *BinMapper) ownBinView() *binGhostView {
	if bm.index == nil {
		bm.index = buildBinIndex(bm.lastBins)
	}
	if bm.ownView == nil {
		bm.ownView = &binGhostView{bm: bm}
	}
	return bm.ownView
}

// GhostViews implements ConcurrentGhostSource for bin-based mapping: the
// shared spatial index over the current frame's bins is built eagerly, then
// every view queries it with private scratch buffers. Views answer from the
// bins of the most recent Assign and are invalidated by the next one.
func (bm *BinMapper) GhostViews(n int) []GhostSource {
	if bm.index == nil && len(bm.lastBins) > 0 {
		bm.index = buildBinIndex(bm.lastBins)
	}
	for len(bm.views) < n {
		bm.views = append(bm.views, &binGhostView{bm: bm})
	}
	out := make([]GhostSource, n)
	for i := range out {
		out[i] = bm.views[i]
	}
	return out
}

// binGhostView answers ghost queries against its mapper's current bins and
// index (read-only here) using private scratch, so several views can run
// concurrently. The parent mapper must not Assign while views are in use.
type binGhostView struct {
	bm   *BinMapper
	cand []int32

	// Tile-query scratch (GhostRanksTile): epoch-stamped bin dedup, the
	// current tile's candidate bins and their ranks.
	stamp    []int32
	epoch    int32
	tileBins []binCand
	ranks    []int32
}

// binCand is one candidate bin of a tile window: its box and rank, stored
// inline so the per-particle loop reads no Bin, plus the index cells it is
// registered in, so the per-particle test can reproduce the scalar path's
// bucket-window visibility exactly.
type binCand struct {
	box                          geom.AABB
	rank                         int32
	ilo, jlo, klo, ihi, jhi, khi int32
}

func (v *binGhostView) GhostRanks(dst []int, pos geom.Vec3, radius float64, home int) []int {
	bins, idx := v.bm.lastBins, v.bm.index
	if radius <= 0 || len(bins) == 0 || idx == nil {
		return dst
	}
	v.cand = idx.candidates(v.cand[:0], pos, radius)
	// Dedup by scanning the ranks appended so far: ghost fan-out is
	// typically ≤8 ranks, where a linear scan beats a map and allocates
	// nothing.
	start := len(dst)
	for _, bi := range v.cand {
		b := &bins[bi]
		if b.Rank == home || containsRank(dst[start:], b.Rank) {
			continue
		}
		if b.Box.IntersectsSphere(pos, radius) {
			dst = append(dst, b.Rank)
		}
	}
	return dst
}

// GhostRanksTile implements the GhostSource tile contract against the
// mapper's current bins: per-particle rank sets are identical to
// GhostRanks — same candidate visibility (bucket-window overlap), same
// exact intersection test — with the bucket scan and bin deduplication
// hoisted to once per tile. Each particle walks the tile's candidate bins:
// the integer window test and the home-rank check first, then the sphere
// test of AABB.IntersectsSphere written inline. A tile whose candidate bins
// all belong to different ranks cannot meet a rank twice, so only tiles
// with a repeated rank scan the particle's ranks so far before appending.
func (v *binGhostView) GhostRanksTile(flat []int, offs []int32, ids []int32, pos []geom.Vec3, home []int, radius float64) ([]int, []int32) {
	bins, idx := v.bm.lastBins, v.bm.index
	if radius <= 0 || len(bins) == 0 || idx == nil || len(ids) == 0 {
		for range ids {
			offs = append(offs, int32(len(flat)))
		}
		return flat, offs
	}
	win := geom.TileBounds(pos, ids).Outset(radius)
	v.cand = idx.candidatesBox(v.cand[:0], win)

	// Hoisted per tile: deduplicate candidates (epoch stamps — no clearing
	// between tiles) and drop bins that cannot touch any tile particle's
	// ball (win conservatively contains every such ball).
	if len(v.stamp) < len(bins) {
		v.stamp = make([]int32, len(bins))
		v.epoch = 0
	}
	v.epoch++
	if v.epoch <= 0 { // wrapped: restart stamps
		clear(v.stamp)
		v.epoch = 1
	}
	v.tileBins = v.tileBins[:0]
	first := int32(-1)
	single := true
	for _, bi := range v.cand {
		if v.stamp[bi] == v.epoch {
			continue
		}
		v.stamp[bi] = v.epoch
		b := &bins[bi]
		if !b.Box.Intersects(win) {
			continue
		}
		ilo, jlo, klo := idx.cellOf(b.Box.Lo)
		ihi, jhi, khi := idx.cellOf(b.Box.Hi)
		v.tileBins = append(v.tileBins, binCand{
			box: b.Box, rank: int32(b.Rank),
			ilo: int32(ilo), jlo: int32(jlo), klo: int32(klo),
			ihi: int32(ihi), jhi: int32(jhi), khi: int32(khi),
		})
		if first < 0 {
			first = int32(b.Rank)
		} else if int32(b.Rank) != first {
			single = false
		}
	}
	if len(v.tileBins) == 0 {
		for range ids {
			offs = append(offs, int32(len(flat)))
		}
		return flat, offs
	}

	// Fast path: one rank owns every nearby bin. Particles homed there have
	// no ghosts — this culls whole tiles in rank interiors.
	if single {
		r0 := int(first)
		allHome := true
		for _, i := range ids {
			if home[i] != r0 {
				allHome = false
				break
			}
		}
		if allHome {
			for range ids {
				offs = append(offs, int32(len(flat)))
			}
			return flat, offs
		}
	}

	// Ranks repeat only where bins outnumber ranks (the round-robin fold,
	// Relaxed); there, sort the tile's few candidate ranks to find out.
	// An array over ranks would do it in one pass but costs R entries per
	// view.
	repeats := false
	if len(bins) > v.bm.NumRanks {
		v.ranks = v.ranks[:0]
		for k := range v.tileBins {
			v.ranks = append(v.ranks, v.tileBins[k].rank)
		}
		slices.Sort(v.ranks)
		for k := 1; k < len(v.ranks) && !repeats; k++ {
			repeats = v.ranks[k] == v.ranks[k-1]
		}
	}

	rv := geom.V(radius, radius, radius)
	r2 := radius * radius
	for _, pi := range ids {
		p := pos[pi]
		h := int32(home[pi])
		pilo, pjlo, pklo := idx.cellOf(p.Sub(rv))
		pihi, pjhi, pkhi := idx.cellOf(p.Add(rv))
		start := len(flat)
		for k := range v.tileBins {
			c := &v.tileBins[k]
			// Bucket-window visibility: the scalar path only sees bins
			// registered in the cells of the particle's own window. The
			// integer overlap test also rejects most far bins before the
			// exact sphere test runs.
			if int(c.ihi) < pilo || int(c.ilo) > pihi ||
				int(c.jhi) < pjlo || int(c.jlo) > pjhi ||
				int(c.khi) < pklo || int(c.klo) > pkhi ||
				c.rank == h {
				continue
			}
			d2 := geom.AxisDist2(p.X, c.box.Lo.X, c.box.Hi.X) +
				geom.AxisDist2(p.Y, c.box.Lo.Y, c.box.Hi.Y) +
				geom.AxisDist2(p.Z, c.box.Lo.Z, c.box.Hi.Z)
			if d2 <= r2 && !(repeats && containsRank(flat[start:], int(c.rank))) {
				flat = append(flat, int(c.rank))
			}
		}
		offs = append(offs, int32(len(flat)))
	}
	return flat, offs
}

func containsRank(rs []int, r int) bool {
	for _, x := range rs {
		if x == r {
			return true
		}
	}
	return false
}

var (
	_ ConcurrentGhostSource = (*ElementMapper)(nil)
	_ ConcurrentGhostSource = (*BinMapper)(nil)
)

package mesh

import "picpredict/internal/geom"

// SphereOwners answers "which ranks own grid data within radius r of this
// point?" — the spatial query behind ghost-particle creation. It walks the
// elements intersecting the ball and maps them to owner ranks, so cost
// scales with the ball volume rather than with the rank count, which keeps
// workload generation fast at thousands of ranks.
//
// A SphereOwners reuses internal buffers and is not safe for concurrent use.
type SphereOwners struct {
	m *Mesh
	d *Decomposition

	elemBuf []int

	// Tile-query scratch (RanksTile): the dense owner-rank window of the
	// current tile and the per-particle axis distance tables.
	cellRank   []int32
	bx, by, bz []float64
}

// NewSphereOwners creates a query object for the given mesh and
// decomposition.
func NewSphereOwners(m *Mesh, d *Decomposition) *SphereOwners {
	return &SphereOwners{m: m, d: d}
}

// Ranks appends to dst every rank (≠ exclude; pass -1 to exclude none)
// owning at least one element that intersects the ball (pos, radius), and
// returns the extended slice. The result has no duplicates; order is
// first-encounter (ascending element id). Deduplication scans the ranks
// appended so far — ghost fan-out is typically ≤8 ranks, where a linear
// scan beats a map and allocates nothing.
func (q *SphereOwners) Ranks(dst []int, pos geom.Vec3, radius float64, exclude int) []int {
	if radius <= 0 {
		return dst
	}
	q.elemBuf = q.m.ElementsInSphere(q.elemBuf[:0], pos, radius)
	start := len(dst)
	for _, e := range q.elemBuf {
		r := q.d.RankOf(e)
		if r == exclude || containsRank(dst[start:], r) {
			continue
		}
		dst = append(dst, r)
	}
	return dst
}

func containsRank(rs []int, r int) bool {
	for _, x := range rs {
		if x == r {
			return true
		}
	}
	return false
}

// maxTileWindow bounds the candidate-cell window RanksTile hoists per tile;
// pathological tiles (huge radius relative to tile size) fall back to the
// per-particle path, which stays exact.
const maxTileWindow = 2048

// RanksTile answers the ghost query of Ranks for a whole tile of particles
// in one batch: for each particle index in ids (in order) it appends that
// particle's ghost ranks — every rank ≠ home[i] owning an element inside
// the ball (pos[i], radius) — to flat, and appends the running end offset
// to offs, so particle ids[j]'s ranks are flat[offs[j-1]:offs[j]] (with
// offs[-1] read as the initial len(flat), normally 0).
//
// The owner rank of every cell in the union of the particles' search
// windows is gathered once per tile into a dense window, so the per-cell
// element→rank mapping runs once per tile instead of once per member
// element per particle. Each particle then scans its own clamped index
// window with the scalar per-axis squared-distance tables — the exact
// arithmetic of Grid.CellsInSphere — so the appended ranks match the
// scalar Ranks call element for element, including their order.
//
// A member with a NaN or infinite coordinate has no ball to query: it gets
// no ranks and stays out of the tile window.
func (q *SphereOwners) RanksTile(flat []int, offs []int32, ids []int32, pos []geom.Vec3, home []int, radius float64) ([]int, []int32) {
	box := geom.TileBounds(pos, ids)
	if radius <= 0 || box.Empty() {
		for range ids {
			offs = append(offs, int32(len(flat)))
		}
		return flat, offs
	}
	g := q.m.Elements
	win := box.Outset(radius)
	ilo, jlo, klo := g.ClampCoords(win.Lo)
	ihi, jhi, khi := g.ClampCoords(win.Hi)
	if (ihi-ilo+1)*(jhi-jlo+1)*(khi-klo+1) > maxTileWindow {
		for _, i := range ids {
			if pos[i].IsFinite() {
				flat = q.Ranks(flat, pos[i], radius, home[i])
			}
			offs = append(offs, int32(len(flat)))
		}
		return flat, offs
	}

	// Hoisted per tile: the dense owner-rank window. The element→rank
	// lookup runs once per window cell instead of once per member element
	// per particle.
	wi, wj := ihi-ilo+1, jhi-jlo+1
	q.cellRank = q.cellRank[:0]
	first := int32(-1)
	single := true
	for k := klo; k <= khi; k++ {
		for j := jlo; j <= jhi; j++ {
			base := g.Nx * (j + g.Ny*k)
			for i := ilo; i <= ihi; i++ {
				r := int32(q.d.RankOf(base + i))
				q.cellRank = append(q.cellRank, r)
				if first < 0 {
					first = r
				} else if r != first {
					single = false
				}
			}
		}
	}

	// Fast path: the whole window belongs to one rank. A particle homed
	// there has no ghosts; this culls whole tiles in rank interiors.
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

	r2 := radius * radius
	rv := geom.V(radius, radius, radius)
	for _, pi := range ids {
		p := pos[pi]
		if !p.IsFinite() {
			offs = append(offs, int32(len(flat)))
			continue
		}
		h := home[pi]
		pilo, pjlo, pklo := g.ClampCoords(p.Sub(rv))
		pihi, pjhi, pkhi := g.ClampCoords(p.Add(rv))
		dx2 := g.AxisDist2Table(q.bx[:0], 0, p.X, pilo, pihi)
		dy2 := g.AxisDist2Table(q.by[:0], 1, p.Y, pjlo, pjhi)
		dz2 := g.AxisDist2Table(q.bz[:0], 2, p.Z, pklo, pkhi)
		q.bx, q.by, q.bz = dx2, dy2, dz2
		start := len(flat)
		// The particle window is contained in the tile window (the tile box
		// outset by the radius bounds every finite member's ball box, and
		// the cell coordinate maps are monotone), so the dense indexing is
		// in range.
		for k := pklo; k <= pkhi; k++ {
			dkz := dz2[k-pklo]
			krow := (k - klo) * wj * wi
			for j := pjlo; j <= pjhi; j++ {
				djk := dy2[j-pjlo] + dkz
				if djk > r2 {
					continue
				}
				row := krow + (j-jlo)*wi - ilo
				for i := pilo; i <= pihi; i++ {
					if dx2[i-pilo]+djk <= r2 {
						if r := int(q.cellRank[row+i]); r != h && !containsRank(flat[start:], r) {
							flat = append(flat, r)
						}
					}
				}
			}
		}
		offs = append(offs, int32(len(flat)))
	}
	return flat, offs
}

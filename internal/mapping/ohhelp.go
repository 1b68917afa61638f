package mapping

import (
	"fmt"
	"sort"

	"picpredict/internal/geom"
	"picpredict/internal/mesh"
)

// HelperMapper implements an OhHelp-inspired mapping (Nakashima et al.,
// paper ref [16]): every processor primarily owns the particles of its own
// element sub-domain (element-based mapping), but overloaded processors
// hand their excess particles to underloaded *helper* processors, which
// replicate the owner's grid data for the duration. The result keeps
// domain-decomposition locality for the majority of particles while
// bounding every processor's load near the average.
//
// The helper assignment is deterministic: ranks are processed in ascending
// order; a rank keeps its first `target` particles (ascending particle
// index) and exports the rest to the lowest-indexed ranks with spare
// capacity.
type HelperMapper struct {
	Mesh   *mesh.Mesh
	Decomp *mesh.Decomposition
	// Slack is the allowed overload fraction before helpers engage: a
	// rank keeps up to ceil((1+Slack)·Np/R) particles. Zero means perfect
	// balancing.
	Slack float64

	// HelpersEngaged counts, per Assign call, how many ranks received
	// helper work (an output statistic).
	HelpersEngaged int

	// scratch
	owner  []int
	counts []int
	spare  []int
}

// NewHelperMapper builds the mapper over an existing element decomposition.
func NewHelperMapper(m *mesh.Mesh, d *mesh.Decomposition) *HelperMapper {
	return &HelperMapper{Mesh: m, Decomp: d, Slack: 0.1}
}

// Ranks implements Mapper.
func (hm *HelperMapper) Ranks() int { return hm.Decomp.Ranks }

// Assign implements Mapper.
func (hm *HelperMapper) Assign(dst []int, pos []geom.Vec3) error {
	if len(dst) != len(pos) {
		return fmt.Errorf("mapping: dst length %d != positions %d", len(dst), len(pos))
	}
	ranks := hm.Decomp.Ranks
	if ranks <= 0 {
		return fmt.Errorf("mapping: helper mapper needs positive rank count")
	}
	n := len(pos)
	if n == 0 {
		hm.HelpersEngaged = 0
		return nil
	}
	// Primary element-based assignment.
	if cap(hm.owner) < n {
		hm.owner = make([]int, n)
	}
	owner := hm.owner[:n]
	if cap(hm.counts) < ranks {
		hm.counts = make([]int, ranks)
	}
	counts := hm.counts[:ranks]
	for r := range counts {
		counts[r] = 0
	}
	for i, p := range pos {
		owner[i] = hm.Decomp.RankOf(hm.Mesh.Home(p))
		counts[owner[i]]++
	}

	// Capacity per rank: the average plus slack, at least 1.
	target := (n + ranks - 1) / ranks
	capPerRank := target + int(hm.Slack*float64(target))
	if capPerRank < 1 {
		capPerRank = 1
	}

	// Helper ranks: those with spare capacity, ascending rank order.
	hm.spare = hm.spare[:0]
	for r := 0; r < ranks; r++ {
		if counts[r] < capPerRank {
			hm.spare = append(hm.spare, r)
		}
	}
	sort.Ints(hm.spare)

	helpers := map[int]struct{}{}
	kept := make([]int, ranks)
	si := 0
	free := 0
	if len(hm.spare) > 0 {
		free = capPerRank - counts[hm.spare[0]]
	}
	for i := range pos {
		r := owner[i]
		if kept[r] < capPerRank {
			kept[r]++
			dst[i] = r
			continue
		}
		// Export to the next helper with capacity. A helper's export
		// capacity is fixed upfront as capPerRank − its primary count, so
		// exports never collide with the primaries it keeps itself.
		for si < len(hm.spare) && free == 0 {
			si++
			if si < len(hm.spare) {
				free = capPerRank - counts[hm.spare[si]]
			}
		}
		if si >= len(hm.spare) {
			// No capacity anywhere (extreme slack settings): keep home.
			dst[i] = r
			kept[r]++
			continue
		}
		h := hm.spare[si]
		dst[i] = h
		helpers[h] = struct{}{}
		free--
	}
	hm.HelpersEngaged = len(helpers)
	return nil
}

var _ Mapper = (*HelperMapper)(nil)

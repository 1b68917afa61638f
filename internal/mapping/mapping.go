// Package mapping implements the particle mapping algorithms of §III: the
// strategies a PIC application uses to assign particles to processors. The
// Dynamic Workload Generator mimics these algorithms on a particle trace to
// synthesise per-processor workload without running the application.
//
// Five mappers are provided:
//
//   - ElementMapper (§III-B): a particle lives on the processor that owns
//     the spectral element containing it — the de-facto standard, perfect
//     particle–grid locality, but load-imbalanced for clustered particles.
//   - BinMapper (§III-C): the particle domain is recursively cut by planes
//     into bins distributed across processors — near-optimal particle
//     balance at the cost of decoupling particle–grid locality.
//   - HilbertMapper (related work [10], an extension): particles ordered by
//     the Hilbert index of their element and split into equal contiguous
//     chunks — balances counts while approximately preserving locality.
//   - HelperMapper (related work [16]): element ownership, with the excess
//     of overloaded processors exported to underloaded helpers (OhHelp).
//   - DynamicMapper: element mapping under a time-varying element→rank
//     assignment that a rebalance.Policy replaces at epochs, recording the
//     state that migrates. NewWeightedMapper builds the load-balanced
//     element mapping of related work [11] as one: the Hilbert element
//     order cut into chunks of equal grid+particle load, re-cut when the
//     imbalance outgrows what the last cut achieved.
package mapping

import (
	"fmt"

	"picpredict/internal/geom"
	"picpredict/internal/mesh"
)

// Mapper assigns every particle of one trace frame to a processor rank.
// Implementations mimic the application's particle mapping algorithm using
// only particle positions, which is exactly the information a particle
// trace carries.
type Mapper interface {
	// Ranks returns the number of processors particles are mapped onto.
	Ranks() int
	// Assign writes the rank of each particle into dst (len(dst) must
	// equal len(pos)). A frame is assigned as a whole because bin-based
	// mapping derives its bins from the full population of the frame.
	Assign(dst []int, pos []geom.Vec3) error
}

// ElementMapper implements element-based mapping: rank of the particle's
// home element (mesh.Home), which clamps positions onto the domain first —
// the application reflects particles at walls, so trace round-off can leave
// a position marginally outside.
type ElementMapper struct {
	Mesh   *mesh.Mesh
	Decomp *mesh.Decomposition

	owners *mesh.SphereOwners // lazy, for GhostRanks
	views  []sphereGhostView  // cached GhostViews for parallel fills
}

// NewElementMapper builds an element mapper over an existing decomposition.
func NewElementMapper(m *mesh.Mesh, d *mesh.Decomposition) *ElementMapper {
	return &ElementMapper{Mesh: m, Decomp: d}
}

// Ranks implements Mapper.
func (em *ElementMapper) Ranks() int { return em.Decomp.Ranks }

// Assign implements Mapper.
func (em *ElementMapper) Assign(dst []int, pos []geom.Vec3) error {
	if len(dst) != len(pos) {
		return fmt.Errorf("mapping: dst length %d != positions %d", len(dst), len(pos))
	}
	for i, p := range pos {
		dst[i] = em.Decomp.RankOf(em.Mesh.Home(p))
	}
	return nil
}

var _ Mapper = (*ElementMapper)(nil)

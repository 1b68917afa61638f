package mapping

import (
	"fmt"
	"sort"

	"picpredict/internal/geom"
	"picpredict/internal/mesh"
	"picpredict/internal/rebalance"
)

// Migration is one (src→dst) rank transfer produced by a rebalance epoch:
// the elements whose ownership moved from Src to Dst at Frame, together with
// the particles resident in those elements that frame. The workload
// generator drains these into per-interval migration matrices and the BSP
// simulator prices them as LogP messages — element grid state plus particle
// state crossing the network.
type Migration struct {
	// Frame is the 0-based frame index at which the new assignment took
	// effect.
	Frame int
	// Src and Dst are the old and new owner ranks.
	Src, Dst int
	// Elements is how many elements moved from Src to Dst.
	Elements int64
	// Particles is how many resident particles moved with those elements.
	Particles int64
}

// MigrationSource is implemented by mappers whose assignment changes over
// time. DrainMigrations returns the transfers recorded since the previous
// drain, ordered by (Frame, Src, Dst), and clears the internal buffer; the
// generator drains once per frame, immediately after Assign.
type MigrationSource interface {
	DrainMigrations() []Migration
}

// gridWeight is the load of one grid point relative to one particle (the α
// in element load = α·N³ + particles).
const gridWeight = 0.01

// DynamicMapper is element-based mapping under a time-varying decomposition:
// it installs the static recursive bisection on the first frame, then lets a
// rebalance.Policy decide each frame whether to swap in a new element→rank
// assignment. An assignment the policy returns at frame 0 replaces the
// static one outright: there are no prior owners to move state away from.
// Later swaps are epochs: they rebuild the ghost-query machinery (the same
// SphereOwners views ElementMapper uses — they just no longer live forever)
// and record the element/particle volume that changed owners, so downstream
// consumers can price the migration.
type DynamicMapper struct {
	Mesh     *mesh.Mesh
	NumRanks int
	// Policy decides when the assignment changes. Must be non-nil; a nil
	// policy wants ElementMapper instead.
	Policy rebalance.Policy

	owner  []int
	decomp *mesh.Decomposition
	owners *mesh.SphereOwners // lazy, invalidated at epochs
	views  []sphereGhostView  // cached GhostViews, invalidated at epochs

	frame   int
	pending []Migration

	// scratch
	elemOf []int
	counts []int64
}

// NewDynamicMapper builds a dynamic element mapper driven by policy p.
func NewDynamicMapper(m *mesh.Mesh, ranks int, p rebalance.Policy) *DynamicMapper {
	return &DynamicMapper{Mesh: m, NumRanks: ranks, Policy: p}
}

// Ranks implements Mapper.
func (dm *DynamicMapper) Ranks() int { return dm.NumRanks }

// Assign implements Mapper.
func (dm *DynamicMapper) Assign(dst []int, pos []geom.Vec3) error {
	if len(dst) != len(pos) {
		return fmt.Errorf("mapping: dst length %d != positions %d", len(dst), len(pos))
	}
	if dm.NumRanks <= 0 {
		return fmt.Errorf("mapping: dynamic mapper needs positive rank count, got %d", dm.NumRanks)
	}
	if dm.Policy == nil {
		return fmt.Errorf("mapping: dynamic mapper needs a rebalance policy")
	}
	nel := dm.Mesh.NumElements()
	if dm.counts == nil {
		dm.counts = make([]int64, nel)
	} else {
		clear(dm.counts)
	}
	if cap(dm.elemOf) < len(pos) {
		dm.elemOf = make([]int, len(pos))
	}
	elemOf := dm.elemOf[:len(pos)]
	for i, p := range pos {
		e := dm.Mesh.Home(p)
		elemOf[i] = e
		dm.counts[e]++
	}

	if dm.owner == nil {
		// Initial installation is the same static bisection every other
		// element mapper starts from; it is not an epoch and migrates
		// nothing.
		d, err := mesh.Decompose(dm.Mesh, dm.NumRanks)
		if err != nil {
			return fmt.Errorf("mapping: %w", err)
		}
		dm.install(d)
	}

	newOwner, err := dm.Policy.Decide(dm.Mesh, rebalance.Load{
		Frame:    dm.frame,
		Ranks:    dm.NumRanks,
		Owner:    dm.owner,
		Counts:   dm.counts,
		GridLoad: gridWeight * float64(dm.Mesh.N*dm.Mesh.N*dm.Mesh.N),
	})
	if err != nil {
		return fmt.Errorf("mapping: rebalance policy %s: %w", dm.Policy.Name(), err)
	}
	if newOwner != nil {
		if len(newOwner) != nel {
			return fmt.Errorf("mapping: policy %s returned %d owners for %d elements", dm.Policy.Name(), len(newOwner), nel)
		}
		// At frame 0 the policy's owners replace the static install: that
		// installs, it does not migrate, and it is no epoch.
		if dm.frame == 0 || dm.recordMigrations(newOwner) {
			d, err := mesh.FromOwner(dm.Mesh, dm.NumRanks, newOwner)
			if err != nil {
				return fmt.Errorf("mapping: %w", err)
			}
			dm.install(d)
		}
	}

	for i, e := range elemOf {
		dst[i] = dm.owner[e]
	}
	dm.frame++
	return nil
}

// install swaps in a new decomposition and invalidates the cached ghost
// query machinery; the next ghost query or GhostViews call rebuilds it over
// the new owners.
func (dm *DynamicMapper) install(d *mesh.Decomposition) {
	dm.decomp = d
	dm.owner = d.Owner
	dm.owners = nil
	dm.views = nil
}

// recordMigrations diffs newOwner against the current assignment and
// appends one Migration per changed (src,dst) rank pair, weighted by this
// frame's resident-particle counts. Returns whether anything changed.
func (dm *DynamicMapper) recordMigrations(newOwner []int) bool {
	type volume struct{ elems, parts int64 }
	moved := make(map[[2]int]*volume)
	for e, src := range dm.owner {
		dst := newOwner[e]
		if dst == src {
			continue
		}
		k := [2]int{src, dst}
		v := moved[k]
		if v == nil {
			v = &volume{}
			moved[k] = v
		}
		v.elems++
		v.parts += dm.counts[e]
	}
	if len(moved) == 0 {
		return false
	}
	// Collect-then-sort: map iteration order must not leak into the
	// migration stream (the workload format and the simulator both consume
	// it in order).
	keys := make([][2]int, 0, len(moved))
	for k := range moved {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, b int) bool {
		if keys[a][0] != keys[b][0] {
			return keys[a][0] < keys[b][0]
		}
		return keys[a][1] < keys[b][1]
	})
	for _, k := range keys {
		v := moved[k]
		dm.pending = append(dm.pending, Migration{
			Frame: dm.frame, Src: k[0], Dst: k[1],
			Elements: v.elems, Particles: v.parts,
		})
	}
	return true
}

// DrainMigrations implements MigrationSource.
func (dm *DynamicMapper) DrainMigrations() []Migration {
	out := dm.pending
	dm.pending = nil
	return out
}

// GhostRanks implements GhostSource over the current decomposition.
func (dm *DynamicMapper) GhostRanks(dst []int, pos geom.Vec3, radius float64, home int) []int {
	return dm.ownersQuery().Ranks(dst, pos, radius, home)
}

// GhostRanksTile implements GhostSource over the current decomposition.
func (dm *DynamicMapper) GhostRanksTile(flat []int, offs []int32, ids []int32, pos []geom.Vec3, home []int, radius float64) ([]int, []int32) {
	return dm.ownersQuery().RanksTile(flat, offs, ids, pos, home, radius)
}

func (dm *DynamicMapper) ownersQuery() *mesh.SphereOwners {
	if dm.owners == nil {
		dm.owners = mesh.NewSphereOwners(dm.Mesh, dm.decomp)
	}
	return dm.owners
}

// GhostViews implements ConcurrentGhostSource. Unlike ElementMapper the
// views only survive until the next epoch swap, which invalidates them; the
// generator re-requests views each frame, so a post-epoch frame transparently
// gets views over the new owners.
func (dm *DynamicMapper) GhostViews(n int) []GhostSource {
	for len(dm.views) < n {
		dm.views = append(dm.views, sphereGhostView{q: mesh.NewSphereOwners(dm.Mesh, dm.decomp)})
	}
	out := make([]GhostSource, n)
	for i := range out {
		out[i] = dm.views[i]
	}
	return out
}

var (
	_ Mapper                = (*DynamicMapper)(nil)
	_ ConcurrentGhostSource = (*DynamicMapper)(nil)
	_ MigrationSource       = (*DynamicMapper)(nil)
)

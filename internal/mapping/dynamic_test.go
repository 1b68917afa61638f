package mapping

import (
	"testing"

	"picpredict/internal/geom"
	"picpredict/internal/mesh"
	"picpredict/internal/rebalance"
)

// cornerCloud clusters n particles into the low corner of the quad mesh —
// the skew that makes every rebalance policy fire.
func cornerCloud(n int) []geom.Vec3 {
	pos := make([]geom.Vec3, n)
	for i := range pos {
		f := float64(i) / float64(n)
		pos[i] = geom.V(0.1+0.3*f, 0.1+0.3*(1-f), 0.5)
	}
	return pos
}

func TestDynamicMapperMetadataAndValidation(t *testing.T) {
	m, _ := quadMesh(t)
	dm := NewDynamicMapper(m, 4, rebalance.Periodic{Every: 2})
	if dm.Ranks() != 4 {
		t.Errorf("Ranks = %d, want 4", dm.Ranks())
	}
	pos := cornerCloud(8)
	if err := dm.Assign(make([]int, 3), pos); err == nil {
		t.Error("length mismatch accepted")
	}
	if err := NewDynamicMapper(m, 0, rebalance.Periodic{Every: 2}).Assign(make([]int, 8), pos); err == nil {
		t.Error("zero ranks accepted")
	}
	if err := NewDynamicMapper(m, 4, nil).Assign(make([]int, 8), pos); err == nil {
		t.Error("nil policy accepted")
	}
}

// The initial static installation is not an epoch and migrates nothing:
// there are no prior owners to move state away from.
func TestDynamicMapperInitialInstallIsNotAnEpoch(t *testing.T) {
	m, d := quadMesh(t)
	dm := NewDynamicMapper(m, 4, rebalance.Periodic{Every: 2})
	pos := cornerCloud(64)
	dst := make([]int, len(pos))
	if err := dm.Assign(dst, pos); err != nil {
		t.Fatal(err)
	}
	if mig := dm.DrainMigrations(); len(mig) != 0 {
		t.Errorf("first frame migrated %d pairs, want 0", len(mig))
	}
	// Frame 0 matches the static element mapper exactly.
	em := NewElementMapper(m, d)
	want := make([]int, len(pos))
	if err := em.Assign(want, pos); err != nil {
		t.Fatal(err)
	}
	for i := range dst {
		if dst[i] != want[i] {
			t.Fatalf("particle %d: dynamic rank %d, static rank %d", i, dst[i], want[i])
		}
	}
}

func TestDynamicMapperEpochRecordsMigrations(t *testing.T) {
	m, _ := quadMesh(t)
	dm := NewDynamicMapper(m, 4, rebalance.Periodic{Every: 2})
	pos := cornerCloud(200)
	dst := make([]int, len(pos))
	// Frames 0 and 1: no epoch (cadence 2, frame 0 never fires).
	for frame := 0; frame < 2; frame++ {
		if err := dm.Assign(dst, pos); err != nil {
			t.Fatal(err)
		}
		if mig := dm.DrainMigrations(); len(mig) != 0 {
			t.Fatalf("frame %d before cadence migrated %d pairs, want 0", frame, len(mig))
		}
	}
	// Frame 2: the skewed corner load forces a re-bisection epoch.
	if err := dm.Assign(dst, pos); err != nil {
		t.Fatal(err)
	}
	mig := dm.DrainMigrations()
	if len(mig) == 0 {
		t.Fatal("epoch recorded no migrations")
	}
	for i, mg := range mig {
		if mg.Frame != 2 {
			t.Errorf("migration %d at frame %d, want 2", i, mg.Frame)
		}
		if mg.Src == mg.Dst || mg.Src < 0 || mg.Src >= 4 || mg.Dst < 0 || mg.Dst >= 4 {
			t.Errorf("migration %d has bad ranks %d→%d", i, mg.Src, mg.Dst)
		}
		if mg.Elements <= 0 || mg.Particles < 0 {
			t.Errorf("migration %d has bad volume %+v", i, mg)
		}
		// Drained in (Frame, Src, Dst) order.
		if i > 0 {
			prev := mig[i-1]
			if mg.Src < prev.Src || (mg.Src == prev.Src && mg.Dst <= prev.Dst) {
				t.Errorf("migrations out of order: %+v before %+v", prev, mg)
			}
		}
	}
	// The drain cleared the buffer.
	if again := dm.DrainMigrations(); len(again) != 0 {
		t.Errorf("second drain returned %d migrations, want 0", len(again))
	}
	// Post-epoch assignments are consistent with an owner map that changed:
	// every particle's rank equals the new owner of its element.
	for i, p := range pos {
		if want := dm.decomp.RankOf(m.ElementAt(p)); dst[i] != want {
			t.Fatalf("particle %d rank %d, want %d after epoch", i, dst[i], want)
		}
	}
}

// An epoch invalidates the ghost machinery: post-epoch ghost queries must
// answer over the new owners, identically to a fresh query structure built
// on the new decomposition.
func TestDynamicMapperGhostViewsFollowEpochs(t *testing.T) {
	m, _ := quadMesh(t)
	dm := NewDynamicMapper(m, 4, rebalance.Periodic{Every: 1})
	pos := cornerCloud(200)
	dst := make([]int, len(pos))
	epochs := 0
	for frame := 0; frame < 2; frame++ { // frame 1 fires an epoch
		if err := dm.Assign(dst, pos); err != nil {
			t.Fatal(err)
		}
		if len(dm.DrainMigrations()) > 0 {
			epochs++
		}
	}
	if epochs == 0 {
		t.Fatal("no epoch fired")
	}
	fresh := mesh.NewSphereOwners(m, dm.decomp)
	views := dm.GhostViews(2)
	for i, p := range pos[:32] {
		home := dm.decomp.RankOf(m.ElementAt(p))
		want := fresh.Ranks(nil, p, 0.6, home)
		got := dm.GhostRanks(nil, p, 0.6, home)
		if len(got) != len(want) {
			t.Fatalf("particle %d: GhostRanks %v, want %v", i, got, want)
		}
		for j := range got {
			if got[j] != want[j] {
				t.Fatalf("particle %d: GhostRanks %v, want %v", i, got, want)
			}
		}
		for v, view := range views {
			got := view.GhostRanks(nil, p, 0.6, home)
			if len(got) != len(want) {
				t.Fatalf("particle %d view %d: GhostRanks %v, want %v", i, v, got, want)
			}
			for j := range got {
				if got[j] != want[j] {
					t.Fatalf("particle %d view %d: GhostRanks %v, want %v", i, v, got, want)
				}
			}
		}
	}
}

// Identical frame sequences produce identical assignments, epochs, and
// migration streams — the determinism the workload format depends on.
func TestDynamicMapperDeterministic(t *testing.T) {
	m, _ := quadMesh(t)
	pos := cornerCloud(300)
	// Each migration carries its frame, so equal streams mean equal epochs.
	run := func() ([][]int, []Migration) {
		dm := NewDynamicMapper(m, 4, rebalance.Threshold{Factor: 1.2})
		var dsts [][]int
		var migs []Migration
		for frame := 0; frame < 5; frame++ {
			dst := make([]int, len(pos))
			if err := dm.Assign(dst, pos); err != nil {
				t.Fatal(err)
			}
			dsts = append(dsts, dst)
			migs = append(migs, dm.DrainMigrations()...)
		}
		return dsts, migs
	}
	d1, m1 := run()
	d2, m2 := run()
	if len(m1) != len(m2) {
		t.Fatalf("migration streams %d vs %d entries", len(m1), len(m2))
	}
	for i := range m1 {
		if m1[i] != m2[i] {
			t.Fatalf("migration %d: %+v vs %+v", i, m1[i], m2[i])
		}
	}
	for f := range d1 {
		for i := range d1[f] {
			if d1[f][i] != d2[f][i] {
				t.Fatalf("frame %d particle %d: %d vs %d", f, i, d1[f][i], d2[f][i])
			}
		}
	}
}

package bsst

import (
	"math"
	"testing"

	"picpredict/internal/core"
	"picpredict/internal/geom"
	"picpredict/internal/mapping"
	"picpredict/internal/mesh"
	"picpredict/internal/rebalance"
)

// rebalanceWorkload builds a workload whose mapper fires rebalance epochs:
// a stationary corner cluster under a periodic policy on 4 ranks.
func rebalanceWorkload(t testing.TB) *core.Workload {
	t.Helper()
	m, err := mesh.New(geom.Box(geom.V(0, 0, 0), geom.V(1, 1, 0.01)), 4, 4, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	dm := mapping.NewDynamicMapper(m, 4, rebalance.Periodic{Every: 2})
	const np, frames = 200, 6
	var iters []int
	var pos []geom.Vec3
	for f := 0; f < frames; f++ {
		iters = append(iters, f*100)
		for i := 0; i < np; i++ {
			frac := float64(i) / float64(np)
			pos = append(pos, geom.V(0.02+0.2*frac, 0.02+0.2*(1-frac), 0.005))
		}
	}
	wl, err := core.RunFrames(core.Config{Mapper: dm, FilterRadius: 0.02}, iters, pos, np)
	if err != nil {
		t.Fatal(err)
	}
	if wl.MigElemComm == nil || wl.MigElemComm.Aggregate().Total() == 0 {
		t.Fatal("fixture produced no migration volume")
	}
	return wl
}

func TestMachineMigrationPricing(t *testing.T) {
	m := Quartz()
	if got := m.migrationTime(0, 0, 125); got != 0 {
		t.Errorf("empty transfer costs %v, want 0", got)
	}
	// One element of grid state: latency + points×payload/bandwidth.
	want := m.Latency + 125*m.BytesPerGridPoint/m.Bandwidth
	if got := m.migrationTime(1, 0, 125); math.Abs(got-want) > 1e-18 {
		t.Errorf("one-element transfer %v, want %v", got, want)
	}
	// Particles add their record payload on top.
	want += 10 * m.BytesPerParticle / m.Bandwidth
	if got := m.migrationTime(1, 10, 125); math.Abs(got-want) > 1e-18 {
		t.Errorf("element+particles transfer %v, want %v", got, want)
	}
	// A zero BytesPerGridPoint machine prices grid state at the default.
	m.BytesPerGridPoint = 0
	if got, want := m.migrationBytes(2, 0, 10), 2*10*float64(DefaultBytesPerGridPoint); got != want {
		t.Errorf("defaulted migration bytes %v, want %v", got, want)
	}
}

// SimulateBSP and the event oracle agree on migration-priced workloads, and
// the per-interval decomposition closes: Compute + Comm + Migration =
// IntervalWall.
func TestSimulateMigrationInvariants(t *testing.T) {
	p := trainedPlatform(t)
	wl := rebalanceWorkload(t)
	ev, err := oracleSimulateEvent(p, wl)
	if err != nil {
		t.Fatal(err)
	}
	bsp, err := p.SimulateBSP(wl)
	if err != nil {
		t.Fatal(err)
	}
	for _, pred := range []*Prediction{ev, bsp} {
		if len(pred.Migration) != len(pred.IntervalWall) {
			t.Fatalf("Migration has %d intervals, wall has %d", len(pred.Migration), len(pred.IntervalWall))
		}
		for k := range pred.IntervalWall {
			if pred.Migration[k] < 0 {
				t.Errorf("interval %d: negative migration %v", k, pred.Migration[k])
			}
			sum := pred.Compute[k] + pred.Comm[k] + pred.Migration[k]
			if math.Abs(sum-pred.IntervalWall[k]) > 1e-12*(1+pred.IntervalWall[k]) {
				t.Errorf("interval %d: compute %v + comm %v + migration %v != wall %v",
					k, pred.Compute[k], pred.Comm[k], pred.Migration[k], pred.IntervalWall[k])
			}
		}
	}
	// The two agree interval for interval, migration included.
	for k := range ev.IntervalWall {
		if math.Abs(ev.IntervalWall[k]-bsp.IntervalWall[k]) > 1e-12*(1+bsp.IntervalWall[k]) {
			t.Errorf("interval %d: event wall %v vs BSP %v", k, ev.IntervalWall[k], bsp.IntervalWall[k])
		}
		if math.Abs(ev.Migration[k]-bsp.Migration[k]) > 1e-12*(1+bsp.Migration[k]) {
			t.Errorf("interval %d: event migration %v vs BSP %v", k, ev.Migration[k], bsp.Migration[k])
		}
	}
	if ev.MigrationSec() <= 0 {
		t.Error("epochs fired but total migration cost is zero")
	}
	// Migration shows up only at epoch intervals.
	for k := range ev.Migration {
		hasVolume := wl.MigElemComm.At(k).Total() > 0 || wl.MigPartComm.At(k).Total() > 0
		if !hasVolume && ev.Migration[k] != 0 {
			t.Errorf("interval %d: migration cost %v without migration volume", k, ev.Migration[k])
		}
	}
}

// Static workloads keep the pre-migration Prediction shape: nil Migration,
// zero MigrationSec.
func TestSimulateStaticWorkloadHasNilMigration(t *testing.T) {
	p := trainedPlatform(t)
	wl := clusterWorkload(t, 8)
	event := func(wl *core.Workload) (*Prediction, error) { return oracleSimulateEvent(p, wl) }
	for _, sim := range []func(*core.Workload) (*Prediction, error){event, p.SimulateBSP} {
		pred, err := sim(wl)
		if err != nil {
			t.Fatal(err)
		}
		if pred.Migration != nil {
			t.Error("static workload produced a Migration breakdown")
		}
		if pred.MigrationSec() != 0 {
			t.Errorf("static workload MigrationSec = %v", pred.MigrationSec())
		}
	}
}

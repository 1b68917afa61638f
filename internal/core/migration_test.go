package core

import (
	"bytes"
	"reflect"
	"testing"

	"picpredict/internal/geom"
	"picpredict/internal/mapping"
	"picpredict/internal/mesh"
	"picpredict/internal/obs"
	"picpredict/internal/rebalance"
)

// dynamicSetup builds a DynamicMapper over the unit box randomTrace walks in.
func dynamicSetup(t *testing.T, pol rebalance.Policy) (*mesh.Mesh, *mapping.DynamicMapper) {
	t.Helper()
	m, err := mesh.New(geom.Box(geom.V(0, 0, 0), geom.V(1, 1, 0.01)), 4, 4, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	return m, mapping.NewDynamicMapper(m, 4, pol)
}

// cornerTrace keeps every particle clustered in the low corner: the skew
// that forces each policy to fire at its first opportunity.
func cornerTrace(frames, np int) ([]int, []geom.Vec3) {
	its := make([]int, frames)
	pos := make([]geom.Vec3, 0, frames*np)
	for f := 0; f < frames; f++ {
		its[f] = f * 50
		for i := 0; i < np; i++ {
			frac := float64(i) / float64(np)
			pos = append(pos, geom.V(0.02+0.2*frac, 0.02+0.2*(1-frac), 0.005))
		}
	}
	return its, pos
}

func TestGeneratorMigrationMatrices(t *testing.T) {
	_, dm := dynamicSetup(t, rebalance.Periodic{Every: 2})
	const frames, np = 6, 120
	its, pos := cornerTrace(frames, np)
	g, err := NewGenerator(Config{Mapper: dm})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.New()
	g.SetObs(reg)
	for k, it := range its {
		if err := g.Frame(it, pos[k*np:(k+1)*np]); err != nil {
			t.Fatal(err)
		}
	}
	wl, err := g.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if wl.MigElemComm == nil || wl.MigPartComm == nil {
		t.Fatal("dynamic mapper produced no migration matrices")
	}
	if wl.MigElemComm.Frames() != frames || wl.MigPartComm.Frames() != frames {
		t.Fatalf("migration series %d/%d frames, want %d",
			wl.MigElemComm.Frames(), wl.MigPartComm.Frames(), frames)
	}
	// Entries appear exactly at the policy's epochs. The stationary cluster
	// only changes ownership at the first cadence hit (frame 2); after that
	// the weighted bisection is already installed and the diff is empty.
	epochs := 0
	for k := 0; k < frames; k++ {
		elems := wl.MigElemComm.At(k).Total()
		parts := wl.MigPartComm.At(k).Total()
		if (elems == 0) != (parts == 0) && parts != 0 {
			t.Errorf("frame %d: element total %d but particle total %d", k, elems, parts)
		}
		if elems > 0 {
			epochs++
			if k == 0 {
				t.Error("migration recorded at frame 0")
			}
		}
	}
	if epochs == 0 {
		t.Fatal("no epoch left migration entries")
	}
	// An epoch is exactly a frame whose drained migrations are non-empty.
	if got := reg.Counter(obs.RebalanceEpochs).Value(); got != int64(epochs) {
		t.Errorf("generator counted %d epochs, matrices show %d", got, epochs)
	}
	// Particles ride with their elements: the cluster lives on one rank, so
	// the epoch moves a non-zero particle volume.
	if agg := wl.MigPartComm.Aggregate().Total(); agg == 0 {
		t.Error("epoch moved elements but no resident particles")
	}
}

func TestGeneratorStaticMapperHasNoMigration(t *testing.T) {
	_, _, em := quadSetup(t)
	its, pos := cornerTrace(3, 40)
	// Positions live in the unit box; the quad mesh spans [0,4]³ so the
	// corner cluster still lands in element 0's quadrant.
	wl, err := RunFrames(Config{Mapper: em}, its, pos, 40)
	if err != nil {
		t.Fatal(err)
	}
	if wl.MigElemComm != nil || wl.MigPartComm != nil {
		t.Error("static mapper produced migration matrices")
	}
}

// The parallel fill must reproduce the serial workload bit for bit across
// epoch swaps: the rebalance runs inside Assign (serial, before the fill
// fans out), so worker count must not affect any matrix — migration included.
func TestGeneratorParallelMatchesSerialWithRebalance(t *testing.T) {
	const frames, np = 6, 400
	its, pos := cornerTrace(frames, np)
	run := func(workers int) *Workload {
		_, dm := dynamicSetup(t, rebalance.Periodic{Every: 2})
		wl, err := RunFrames(Config{
			Mapper:       dm,
			FilterRadius: 0.05,
			Workers:      workers,
		}, its, pos, np)
		if err != nil {
			t.Fatal(err)
		}
		return wl
	}
	serial := run(1)
	for _, workers := range []int{2, 4} {
		par := run(workers)
		requireEqualWorkloads(t, serial, par)
		for k := 0; k < frames; k++ {
			if !reflect.DeepEqual(serial.MigElemComm.At(k).Entries(), par.MigElemComm.At(k).Entries()) {
				t.Errorf("workers=%d: MigElemComm frame %d differs", workers, k)
			}
			if !reflect.DeepEqual(serial.MigPartComm.At(k).Entries(), par.MigPartComm.At(k).Entries()) {
				t.Errorf("workers=%d: MigPartComm frame %d differs", workers, k)
			}
		}
	}
}

func TestWorkloadMigrationRoundTrip(t *testing.T) {
	_, dm := dynamicSetup(t, rebalance.Periodic{Every: 2})
	const frames, np = 5, 100
	its, pos := cornerTrace(frames, np)
	wl, err := RunFrames(Config{Mapper: dm, FilterRadius: 0.05}, its, pos, np)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := wl.Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadWorkload(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if back.MigElemComm == nil || back.MigPartComm == nil {
		t.Fatal("migration matrices lost in round trip")
	}
	if back.GhostComm == nil {
		t.Fatal("ghost matrices lost in round trip")
	}
	// The reader seals what it reads exactly as the generator seals what it
	// fills: writing the read-back workload reproduces the file byte for
	// byte, and both hold the same resident bytes.
	var again bytes.Buffer
	if err := back.Write(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), buf.Bytes()) {
		t.Errorf("write → read → write is not byte-identical (%d vs %d bytes)", again.Len(), buf.Len())
	}
	if got, want := back.ResidentBytes(), wl.ResidentBytes(); got != want {
		t.Errorf("ResidentBytes after round trip = %d, want %d", got, want)
	}
	for k := 0; k < frames; k++ {
		if !reflect.DeepEqual(wl.MigElemComm.At(k).Entries(), back.MigElemComm.At(k).Entries()) {
			t.Errorf("MigElemComm frame %d differs after round trip", k)
		}
		if !reflect.DeepEqual(wl.MigPartComm.At(k).Entries(), back.MigPartComm.At(k).Entries()) {
			t.Errorf("MigPartComm frame %d differs after round trip", k)
		}
	}

	// The v1 layout predates migration matrices: WriteLegacy drops the
	// section and the reader reports a migration-free workload.
	var v1 bytes.Buffer
	if err := wl.WriteLegacy(&v1); err != nil {
		t.Fatal(err)
	}
	legacy, err := ReadWorkload(bytes.NewReader(v1.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if legacy.MigElemComm != nil || legacy.MigPartComm != nil {
		t.Error("legacy layout carried migration matrices")
	}
	if legacy.RealComp.Frames() != wl.RealComp.Frames() {
		t.Errorf("legacy frames %d, want %d", legacy.RealComp.Frames(), wl.RealComp.Frames())
	}
}

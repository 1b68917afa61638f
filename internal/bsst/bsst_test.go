package bsst

import (
	"math"
	"strings"
	"sync"
	"testing"

	"picpredict/internal/core"
	"picpredict/internal/geom"
	"picpredict/internal/kernels"
	"picpredict/internal/mapping"
)

var (
	trainedModels     kernels.Models
	trainedModelsErr  error
	trainedModelsOnce sync.Once
)

// trainedPlatform builds a platform with models trained at low noise. The
// (expensive, full-budget) training runs once and is shared by every test;
// each call still gets a fresh Platform so tests may mutate it.
func trainedPlatform(t *testing.T) *Platform {
	t.Helper()
	trainedModelsOnce.Do(func() {
		trainedModels, trainedModelsErr = kernels.Train(
			kernels.NewSynthetic(0.02, 99), kernels.TrainOptions{Seed: 1})
	})
	if trainedModelsErr != nil {
		t.Fatal(trainedModelsErr)
	}
	ms := make(kernels.Models, len(trainedModels))
	for k, v := range trainedModels {
		ms[k] = v
	}
	return &Platform{
		Models:        ms,
		Machine:       Quartz(),
		N:             5,
		Filter:        2,
		TotalElements: 1024,
	}
}

// clusterWorkload builds a small synthetic workload: most particles on one
// rank, migrating gradually to a second.
func clusterWorkload(t testing.TB, ranks int) *core.Workload {
	t.Helper()
	bm := mapping.NewBinMapper(ranks, 0)
	var iters []int
	var pos []geom.Vec3
	const np = 400
	for f := 0; f < 5; f++ {
		iters = append(iters, f*100)
		for i := 0; i < np; i++ {
			x := float64(i%20)*0.01 + float64(f)*0.05
			y := float64(i/20) * 0.01
			pos = append(pos, geom.V(x, y, 0))
		}
	}
	wl, err := core.RunFrames(core.Config{Mapper: bm, FilterRadius: 0.02}, iters, pos, np)
	if err != nil {
		t.Fatal(err)
	}
	return wl
}

func TestQuartzMachine(t *testing.T) {
	m := Quartz()
	if m.transferTime(0) != 0 {
		t.Error("zero particles should cost nothing")
	}
	small, large := m.transferTime(1), m.transferTime(100000)
	if small <= 0 || large <= small {
		t.Errorf("transfer times: %v, %v", small, large)
	}
	// Latency floor.
	if small < m.Latency {
		t.Errorf("transfer below latency: %v < %v", small, m.Latency)
	}
}

func TestPlatformValidate(t *testing.T) {
	p := &Platform{}
	if err := p.Validate(); err == nil {
		t.Error("empty platform accepted")
	}
	p = trainedPlatform(t)
	p.TotalElements = 0
	if err := p.Validate(); err == nil {
		t.Error("zero elements accepted")
	}
	p = trainedPlatform(t)
	delete(p.Models, kernels.Pusher.Name)
	if err := p.Validate(); err == nil {
		t.Error("missing kernel model accepted")
	}
	for _, m := range []Machine{Quartz(), Vulcan(), Titan()} {
		p = trainedPlatform(t)
		p.Machine = m
		if err := p.Validate(); err != nil {
			t.Errorf("preset %s rejected: %v", m.Name, err)
		}
	}
	// A zero latency and a zero grid-point payload (the default) are valid.
	p = trainedPlatform(t)
	p.Machine.Latency, p.Machine.BytesPerGridPoint = 0, 0
	if err := p.Validate(); err != nil {
		t.Errorf("zero latency and default grid-point payload rejected: %v", err)
	}
	nan, inf := math.NaN(), math.Inf(1)
	for _, c := range []struct {
		field string
		set   func(*Machine)
	}{
		{"Bandwidth", func(m *Machine) { m.Bandwidth = 0 }},
		{"Bandwidth", func(m *Machine) { m.Bandwidth = -1e9 }},
		{"Bandwidth", func(m *Machine) { m.Bandwidth = nan }},
		{"Bandwidth", func(m *Machine) { m.Bandwidth = inf }},
		{"Latency", func(m *Machine) { m.Latency = -1e-6 }},
		{"Latency", func(m *Machine) { m.Latency = nan }},
		{"Latency", func(m *Machine) { m.Latency = inf }},
		{"BytesPerParticle", func(m *Machine) { m.BytesPerParticle = -96 }},
		{"BytesPerParticle", func(m *Machine) { m.BytesPerParticle = nan }},
		{"BytesPerParticle", func(m *Machine) { m.BytesPerParticle = inf }},
		{"BytesPerGridPoint", func(m *Machine) { m.BytesPerGridPoint = -64 }},
		{"BytesPerGridPoint", func(m *Machine) { m.BytesPerGridPoint = nan }},
		{"BytesPerGridPoint", func(m *Machine) { m.BytesPerGridPoint = -inf }},
	} {
		p = trainedPlatform(t)
		c.set(&p.Machine)
		err := p.Validate()
		if err == nil {
			t.Errorf("machine %+v accepted", p.Machine)
		} else if !strings.Contains(err.Error(), c.field) {
			t.Errorf("machine %+v: error %q does not name %s", p.Machine, err, c.field)
		}
	}
}

func TestIterTimeIncreasesWithLoad(t *testing.T) {
	p := trainedPlatform(t)
	idle, err := p.IterTime(0, 0, 16)
	if err != nil {
		t.Fatal(err)
	}
	busy, err := p.IterTime(10000, 1000, 16)
	if err != nil {
		t.Fatal(err)
	}
	if busy <= idle {
		t.Errorf("IterTime(busy) = %v <= IterTime(idle) = %v", busy, idle)
	}
	if idle < 0 {
		t.Errorf("negative idle time %v", idle)
	}
}

// The event oracle and the BSP recurrence agree on the cluster fixture
// (workload 0) and on every workload of the oracle property test: compute
// and busy time bit for bit (one shared helper fills both), wall and
// migration to rounding (the event oracle works on absolute clock times).
func TestSimulateEngineMatchesBSP(t *testing.T) {
	p := trainedPlatform(t)
	wls := append([]*core.Workload{clusterWorkload(t, 8)}, propertyWorkloads(150)...)
	near := func(a, b float64) bool { return math.Abs(a-b) <= 1e-12*(1+math.Abs(b)) }
	for i, wl := range wls {
		ev, err := oracleSimulateEvent(p, wl)
		if err != nil {
			t.Fatal(err)
		}
		bsp, err := p.SimulateBSP(wl)
		if err != nil {
			t.Fatal(err)
		}
		if len(ev.IntervalWall) != len(bsp.IntervalWall) || len(ev.Migration) != len(bsp.Migration) {
			t.Fatalf("workload %d: interval counts differ: %d/%d vs %d/%d", i,
				len(ev.IntervalWall), len(ev.Migration), len(bsp.IntervalWall), len(bsp.Migration))
		}
		for k := range ev.IntervalWall {
			if !near(ev.IntervalWall[k], bsp.IntervalWall[k]) {
				t.Errorf("workload %d interval %d: event %v vs BSP %v", i, k, ev.IntervalWall[k], bsp.IntervalWall[k])
			}
		}
		for k := range ev.Migration {
			if !near(ev.Migration[k], bsp.Migration[k]) {
				t.Errorf("workload %d interval %d: event migration %v vs BSP %v", i, k, ev.Migration[k], bsp.Migration[k])
			}
		}
		if !sameBits(ev.Compute, bsp.Compute) || !sameBits(ev.RankBusy, bsp.RankBusy) {
			t.Errorf("workload %d: compute or busy time differs between engines", i)
		}
		if math.Abs(ev.Total-bsp.Total) > 1e-9*bsp.Total {
			t.Errorf("workload %d: totals differ: %v vs %v", i, ev.Total, bsp.Total)
		}
	}
}

func TestSimulatePredictionShape(t *testing.T) {
	p := trainedPlatform(t)
	wl := clusterWorkload(t, 8)
	pred, err := p.SimulateBSP(wl)
	if err != nil {
		t.Fatal(err)
	}
	if pred.Ranks != 8 || len(pred.IntervalWall) != 5 {
		t.Fatalf("prediction shape: %+v", pred)
	}
	var sum float64
	for k, w := range pred.IntervalWall {
		if w <= 0 {
			t.Errorf("interval %d wall = %v", k, w)
		}
		if pred.Comm[k] < -1e-12 {
			t.Errorf("interval %d negative comm %v", k, pred.Comm[k])
		}
		if pred.Compute[k] > w+1e-12 {
			t.Errorf("interval %d compute %v exceeds wall %v", k, pred.Compute[k], w)
		}
		sum += w
	}
	if math.Abs(sum-pred.Total) > 1e-9*pred.Total {
		t.Errorf("Total %v != sum of intervals %v", pred.Total, sum)
	}
}

func TestSimulateEmptyWorkload(t *testing.T) {
	p := trainedPlatform(t)
	wl := &core.Workload{Ranks: 4, RealComp: core.NewCompMatrix(4)}
	if _, err := oracleSimulateEvent(p, wl); err == nil {
		t.Error("empty workload accepted by the event oracle")
	}
	if _, err := p.SimulateBSP(wl); err == nil {
		t.Error("empty workload accepted by BSP")
	}
}

func TestMorePparallelismReducesPredictedTime(t *testing.T) {
	// Bin mapping splits the cluster across ranks, so doubling ranks (with
	// no binding threshold) should reduce predicted time.
	p := trainedPlatform(t)
	t4, err := p.SimulateBSP(clusterWorkload(t, 4))
	if err != nil {
		t.Fatal(err)
	}
	t16, err := p.SimulateBSP(clusterWorkload(t, 16))
	if err != nil {
		t.Fatal(err)
	}
	if t16.Total >= t4.Total {
		t.Errorf("16 ranks (%v) not faster than 4 (%v)", t16.Total, t4.Total)
	}
}

func TestKernelAccuracyNoiseFloor(t *testing.T) {
	// Models trained at low noise, evaluated against a 10.5 %-noise
	// testbed: per-kernel MAPE must sit near the noise floor (≈8.4 %),
	// the Fig 7 regime.
	p := trainedPlatform(t)
	wl := clusterWorkload(t, 8)
	acc, err := p.KernelAccuracy(wl, kernels.NewSynthetic(0.105, 7))
	if err != nil {
		t.Fatal(err)
	}
	if len(acc) != 5 {
		t.Fatalf("kernels evaluated: %d", len(acc))
	}
	for name, mape := range acc {
		if mape < 2 || mape > 25 {
			t.Errorf("%s MAPE = %.2f%%, want near the 8.4%% noise floor", name, mape)
		}
	}
	mean := MeanAccuracy(acc)
	if mean < 4 || mean > 15 {
		t.Errorf("mean MAPE = %.2f%%", mean)
	}
}

func TestMeanAccuracyEmpty(t *testing.T) {
	if MeanAccuracy(nil) != 0 {
		t.Error("empty mean not zero")
	}
}

func TestEndToEndAccuracy(t *testing.T) {
	p := trainedPlatform(t)
	wl := clusterWorkload(t, 8)
	pred, meas, errPct, err := p.EndToEndAccuracy(wl, kernels.NewSynthetic(0.08, 3))
	if err != nil {
		t.Fatal(err)
	}
	if pred <= 0 || meas <= 0 {
		t.Fatalf("pred/meas = %v/%v", pred, meas)
	}
	if errPct > 25 {
		t.Errorf("end-to-end error %.1f%% too high", errPct)
	}
}

func TestPredictionRankBusyAndUtilization(t *testing.T) {
	p := trainedPlatform(t)
	wl := clusterWorkload(t, 8)
	pred, err := p.SimulateBSP(wl)
	if err != nil {
		t.Fatal(err)
	}
	if len(pred.RankBusy) != 8 {
		t.Fatalf("RankBusy len %d", len(pred.RankBusy))
	}
	u := pred.MeanUtilization()
	if u <= 0 || u > 1 {
		t.Errorf("MeanUtilization = %v", u)
	}
	// Busy time never exceeds wall time for any rank.
	for r, b := range pred.RankBusy {
		if b > pred.Total+1e-12 {
			t.Errorf("rank %d busy %v exceeds total %v", r, b, pred.Total)
		}
	}
	// The event oracle agrees.
	ev, err := oracleSimulateEvent(p, wl)
	if err != nil {
		t.Fatal(err)
	}
	for r := range pred.RankBusy {
		if d := ev.RankBusy[r] - pred.RankBusy[r]; d > 1e-12 || d < -1e-12 {
			t.Errorf("rank %d busy differs from the event oracle", r)
		}
	}
	if (&Prediction{}).MeanUtilization() != 0 {
		t.Error("empty prediction utilization not zero")
	}
}

func TestMachinePresetsInternal(t *testing.T) {
	for _, name := range []string{"quartz", "vulcan", "titan"} {
		m, ok := ByName(name)
		if !ok || m.Name != name {
			t.Errorf("ByName(%q) = %+v, %v", name, m, ok)
		}
		if m.Latency <= 0 || m.Bandwidth <= 0 {
			t.Errorf("%s: non-positive parameters", name)
		}
	}
	if m, ok := ByName(""); !ok || m.Name != "quartz" {
		t.Error("empty name should default to quartz")
	}
	if _, ok := ByName("frontier"); ok {
		t.Error("unknown machine accepted")
	}
	if Vulcan().Bandwidth >= Quartz().Bandwidth {
		t.Error("Vulcan BG/Q should have less link bandwidth than Quartz")
	}
	if Titan().Name != "titan" {
		t.Error("titan preset mislabeled")
	}
}

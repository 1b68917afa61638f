package picpredict

import (
	"math"
	"strings"
	"sync"
	"testing"
)

var (
	modelsOnce sync.Once
	modelsVal  Models
	modelsErr  error
)

func sharedModels(t *testing.T) Models {
	t.Helper()
	modelsOnce.Do(func() { modelsVal, modelsErr = TrainModels(TrainOptions{Seed: 1}) })
	if modelsErr != nil {
		t.Fatal(modelsErr)
	}
	return modelsVal
}

func TestTrainModelsAndFormulas(t *testing.T) {
	ms := sharedModels(t)
	fs := ms.Formulas()
	if len(fs) != 5 {
		t.Fatalf("formulas = %d", len(fs))
	}
	joined := strings.Join(fs, "\n")
	for _, name := range KernelNames() {
		if !strings.Contains(joined, name) {
			t.Errorf("formulas missing kernel %s", name)
		}
	}
}

func TestModelsValidateAgainstTruth(t *testing.T) {
	ms := sharedModels(t)
	acc, err := ms.ValidateAgainstTruth()
	if err != nil {
		t.Fatal(err)
	}
	for name, mape := range acc {
		if mape > 15 {
			t.Errorf("%s model MAPE vs truth = %.1f%%", name, mape)
		}
	}
}

func TestModelsPredict(t *testing.T) {
	ms := sharedModels(t)
	small, err := ms.Predict("particle_pusher", 100, 0, 16, 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	big, err := ms.Predict("particle_pusher", 100000, 0, 16, 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	if big <= small {
		t.Errorf("pusher time not increasing: %v vs %v", small, big)
	}
	if _, err := ms.Predict("bogus", 1, 1, 1, 1, 1); err == nil {
		t.Error("unknown kernel accepted")
	}
}

func TestPlatformEndToEnd(t *testing.T) {
	tr := tinyTrace(t)
	spec := tinyScenario()
	wl, err := tr.GenerateWorkload(WorkloadOptions{
		Ranks: 16, Mapping: MappingBin, FilterRadius: spec.FilterRadius(),
	})
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPlatform(sharedModels(t), PlatformOptions{
		TotalElements: spec.NumElements(),
		N:             float64(spec.GridN()),
		Filter:        spec.FilterInElements(),
	})
	if err != nil {
		t.Fatal(err)
	}
	pred, err := p.SimulateBSP(wl)
	if err != nil {
		t.Fatal(err)
	}
	if pred.Total <= 0 || len(pred.IntervalWall) != wl.Frames() {
		t.Fatalf("prediction: %+v", pred)
	}

	acc, err := p.KernelAccuracy(wl, 0.105, 7)
	if err != nil {
		t.Fatal(err)
	}
	mean := MeanAccuracy(acc)
	if mean < 3 || mean > 20 {
		t.Errorf("mean kernel MAPE = %.1f%%, want near 8.4%%", mean)
	}

	predTime, measTime, errPct, err := p.EndToEndAccuracy(wl, 0.08, 3)
	if err != nil {
		t.Fatal(err)
	}
	if predTime <= 0 || measTime <= 0 || errPct > 30 {
		t.Errorf("end-to-end: pred %v meas %v err %.1f%%", predTime, measTime, errPct)
	}
}

func TestNewPlatformValidation(t *testing.T) {
	if _, err := NewPlatform(Models{}, PlatformOptions{TotalElements: 10}); err == nil {
		t.Error("empty models accepted")
	}
	if _, err := NewPlatform(sharedModels(t), PlatformOptions{TotalElements: 0}); err == nil {
		t.Error("zero elements accepted")
	}
	for _, name := range MachineNames() {
		m, err := MachineByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := NewPlatform(sharedModels(t), PlatformOptions{TotalElements: 10, Machine: &m}); err != nil {
			t.Errorf("preset %s rejected: %v", name, err)
		}
	}
	for _, c := range []struct {
		field string
		set   func(*MachineSpec)
	}{
		{"Bandwidth", func(m *MachineSpec) { m.BandwidthBps = 0 }},
		{"Bandwidth", func(m *MachineSpec) { m.BandwidthBps = math.Inf(1) }},
		{"Latency", func(m *MachineSpec) { m.LatencySec = -1e-6 }},
		{"BytesPerParticle", func(m *MachineSpec) { m.BytesPerParticle = math.NaN() }},
		{"BytesPerGridPoint", func(m *MachineSpec) { m.BytesPerGridPoint = -64 }},
	} {
		m := QuartzMachine()
		c.set(&m)
		_, err := NewPlatform(sharedModels(t), PlatformOptions{TotalElements: 10, Machine: &m})
		if err == nil {
			t.Errorf("machine %+v accepted", m)
		} else if !strings.Contains(err.Error(), c.field) {
			t.Errorf("machine %+v: error %q does not name %s", m, err, c.field)
		}
	}
}

func TestCustomMachine(t *testing.T) {
	q := QuartzMachine()
	if q.Name != "quartz" || q.LatencySec <= 0 || q.BandwidthBps <= 0 {
		t.Errorf("quartz spec: %+v", q)
	}
	slow := q
	slow.Name = "slowbox"
	slow.BandwidthBps = 1e6
	slow.LatencySec = 1e-3
	tr := tinyTrace(t)
	wl, err := tr.GenerateWorkload(WorkloadOptions{Ranks: 16, Mapping: MappingBin, FilterRadius: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	opts := PlatformOptions{TotalElements: 256, N: 4, Filter: 0.3}
	fast, err := NewPlatform(sharedModels(t), opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Machine = &slow
	slower, err := NewPlatform(sharedModels(t), opts)
	if err != nil {
		t.Fatal(err)
	}
	pf, err := fast.SimulateBSP(wl)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := slower.SimulateBSP(wl)
	if err != nil {
		t.Fatal(err)
	}
	if ps.Total <= pf.Total {
		t.Errorf("slow machine (%v) not slower than quartz (%v)", ps.Total, pf.Total)
	}
}

func TestTrainModelsWallClockSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock training is slow")
	}
	// Fast mode + wall clock: just verify the pipeline runs and produces
	// positive predictions.
	ms, err := TrainModels(TrainOptions{WallClock: true, Fast: true, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	v, err := ms.Predict("particle_pusher", 50000, 0, 16, 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	if v <= 0 {
		t.Errorf("wall-clock model predicts %v", v)
	}
}

func TestTrainModelsFromAppSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock training")
	}
	ms, err := TrainModelsFromApp(AppTrainOptions{
		Np:     []int{500, 2000},
		N:      []int{3},
		Filter: []float64{0.5, 1.5},
		Seed:   5,
		Fast:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(ms.Formulas()) != 5 {
		t.Fatalf("formulas: %d", len(ms.Formulas()))
	}
	// Inside the training range the models must predict positive times.
	v, err := ms.Predict("particle_pusher", 1000, 0, 256, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if v <= 0 {
		t.Errorf("in-range prediction %v", v)
	}
	// App-trained models plug into the platform like synthetic ones. The
	// tiny workload sits below the training range, where noisy wall-clock
	// fits may legitimately clamp to zero — require only a well-formed,
	// non-negative prediction.
	p, err := NewPlatform(ms, PlatformOptions{TotalElements: 256, N: 3, Filter: 1})
	if err != nil {
		t.Fatal(err)
	}
	tr := tinyTrace(t)
	wl, err := tr.GenerateWorkload(WorkloadOptions{Ranks: 8, Mapping: MappingBin, FilterRadius: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	pred, err := p.SimulateBSP(wl)
	if err != nil {
		t.Fatal(err)
	}
	if pred.Total < 0 || len(pred.IntervalWall) != wl.Frames() {
		t.Errorf("prediction: total %v, %d intervals", pred.Total, len(pred.IntervalWall))
	}
}

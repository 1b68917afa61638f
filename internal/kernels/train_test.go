package kernels

import (
	"math"
	"slices"
	"strings"
	"sync"
	"testing"

	"picpredict/internal/perfmodel"
)

func trainFast(t *testing.T, sigma float64) Models {
	t.Helper()
	ms, err := Train(NewSynthetic(sigma, 99), TrainOptions{Seed: 1, Fast: true})
	if err != nil {
		t.Fatal(err)
	}
	return ms
}

func TestTrainProducesAllModels(t *testing.T) {
	ms := trainFast(t, 0.02)
	for _, k := range All() {
		if ms[k.Name] == nil {
			t.Errorf("no model for %s", k.Name)
		}
	}
	if len(ms) != 5 {
		t.Errorf("model count = %d", len(ms))
	}
}

func TestTrainedModelsAccurate(t *testing.T) {
	// Low-noise training: every model must track its kernel's true cost
	// closely on a validation grid distinct from the training sweep.
	ms := trainFast(t, 0.02)
	valid := Sweep{
		Np:     []float64{75, 700, 9000, 40000},
		Ngp:    []float64{25, 600, 2500},
		N:      []float64{4, 6, 8},
		Filter: []float64{0.8, 2.5, 4},
	}
	for _, k := range All() {
		samples := Generate(k, noiseless{}, valid)
		var x [][]float64
		var y []float64
		for _, s := range samples {
			x = append(x, s.W.Features())
			y = append(y, s.Time)
		}
		mape, err := perfmodel.EvalMAPE(ms[k.Name], x, y)
		if err != nil {
			t.Fatalf("%s: %v", k.Name, err)
		}
		if mape > 20 {
			t.Errorf("%s: validation MAPE %.1f%% (model %s)", k.Name, mape, ms[k.Name])
		}
	}
}

// noiseless measures the exact true cost.
type noiseless struct{}

func (noiseless) Measure(k Kernel, w Workload) float64 { return k.TrueCost(w) }

func TestTrainPusherIsLinearModel(t *testing.T) {
	ms := trainFast(t, 0.02)
	if _, ok := ms[Pusher.Name].(*perfmodel.LinearModel); !ok {
		t.Errorf("pusher model is %T, want LinearModel (single-parameter → linear regression)", ms[Pusher.Name])
	}
	if _, ok := ms[Projection.Name].(*perfmodel.SymbolicModel); !ok {
		t.Errorf("projection model is %T, want SymbolicModel (multi-parameter → symbolic regression)", ms[Projection.Name])
	}
}

func TestTrainFromSamplesFailsDeterministically(t *testing.T) {
	// One sample per kernel — what an application sweep with a single
	// configuration produces — leaves both linear kernels under-identified.
	// The error must name the first of them in kernel-name order, every
	// time.
	w := Workload{Np: 1000, Ngp: 100, Nel: 64, N: 5, Filter: 1}
	samples := make(map[string][]Sample)
	for _, k := range All() {
		samples[k.Name] = []Sample{{W: w, Time: k.TrueCost(w)}}
	}
	var first string
	for i := 0; i < 20; i++ {
		_, err := TrainFromSamples(samples, TrainOptions{Seed: 1, Fast: true})
		if err == nil {
			t.Fatal("one sample per kernel trained without error")
		}
		if i == 0 {
			first = err.Error()
			if !strings.Contains(first, Pusher.Name) {
				t.Fatalf("error %q does not name %s", first, Pusher.Name)
			}
		} else if err.Error() != first {
			t.Fatalf("call %d returned %q, call 0 returned %q", i, err, first)
		}
	}
}

// predictionBits evaluates every model on a grid of workload points.
func predictionBits(t *testing.T, ms Models) []uint64 {
	t.Helper()
	var bits []uint64
	for _, k := range All() {
		for _, np := range []float64{0, 75, 9000, 599257} {
			for _, ngp := range []float64{0, 600, 38035} {
				for _, f := range []float64{0.5, 2.5} {
					v, err := ms[k.Name].Predict(Workload{Np: np, Ngp: ngp, Nel: 64, N: 5, Filter: f}.Features())
					if err != nil {
						t.Fatalf("%s: %v", k.Name, err)
					}
					bits = append(bits, math.Float64bits(v))
				}
			}
		}
	}
	return bits
}

func TestConcurrentTrainingMatchesSerial(t *testing.T) {
	// Two trainings at once — a server warming two model keys, or a fused
	// run training beside the solver — must fit exactly the models each
	// fits alone. A reduced sweep keeps the test quick under -race.
	sweep := Sweep{
		Np:     []float64{0, 1000, 60000},
		Ngp:    []float64{0, 5000},
		Nel:    []float64{64},
		N:      []float64{3, 9},
		Filter: []float64{0.5, 5},
	}
	seeds := []int64{1, 2}
	train := func(seed int64) (Models, error) {
		return Train(NewSynthetic(0.02, 100+seed), TrainOptions{Sweep: sweep, Seed: seed, Fast: true})
	}
	serial := make([][]uint64, len(seeds))
	for i, seed := range seeds {
		ms, err := train(seed)
		if err != nil {
			t.Fatal(err)
		}
		serial[i] = predictionBits(t, ms)
	}
	models := make([]Models, len(seeds))
	errs := make([]error, len(seeds))
	var wg sync.WaitGroup
	for i, seed := range seeds {
		wg.Add(1)
		go func() {
			defer wg.Done()
			models[i], errs[i] = train(seed)
		}()
	}
	wg.Wait()
	for i, seed := range seeds {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if got := predictionBits(t, models[i]); !slices.Equal(got, serial[i]) {
			t.Errorf("seed %d: concurrent training predicts differently from serial training", seed)
		}
	}
	if slices.Equal(serial[0], serial[1]) {
		t.Error("different seeds trained identical models; the comparison proves nothing")
	}
}

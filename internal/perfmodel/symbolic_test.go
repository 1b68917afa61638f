package perfmodel

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

func TestSymbolicRecoversLinearLaw(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var x [][]float64
	var y []float64
	for i := 0; i < 60; i++ {
		a := rng.Float64() * 100
		x = append(x, []float64{a})
		y = append(y, 2e-6+3.5e-8*a)
	}
	m, err := FitSymbolic(x, y, SymbolicOptions{
		Seed: 11, FeatureNames: []string{"Np"},
		Population: 150, Generations: 40,
	})
	if err != nil {
		t.Fatal(err)
	}
	mape, err := EvalMAPE(m, x, y)
	if err != nil {
		t.Fatal(err)
	}
	if mape > 1 {
		t.Errorf("symbolic MAPE on linear law = %v%%, model %s", mape, m)
	}
}

func TestSymbolicRecoversProductLaw(t *testing.T) {
	// y = c·Np·N³ — the multi-parameter coupling that defeats raw linear
	// regression (§II-B's motivation for symbolic regression).
	rng := rand.New(rand.NewSource(4))
	var x [][]float64
	var y []float64
	for i := 0; i < 120; i++ {
		np := rng.Float64() * 1e4
		n := 2 + rng.Float64()*8
		x = append(x, []float64{np, n})
		y = append(y, 2e-9*np*n*n*n)
	}
	m, err := FitSymbolic(x, y, SymbolicOptions{
		Seed: 12, FeatureNames: []string{"Np", "N"},
	})
	if err != nil {
		t.Fatal(err)
	}
	mape, err := EvalMAPE(m, x, y)
	if err != nil {
		t.Fatal(err)
	}
	// The linear baseline on the same data for contrast.
	basis, names := RawBasis([]string{"Np", "N"})
	lin, err := FitLinear(x, y, basis, names)
	if err != nil {
		t.Fatal(err)
	}
	linMAPE, _ := EvalMAPE(lin, x, y)
	if mape > 20 {
		t.Errorf("symbolic MAPE = %v%% too high (model %s)", mape, m)
	}
	if mape >= linMAPE {
		t.Errorf("symbolic (%v%%) not better than raw linear (%v%%)", mape, linMAPE)
	}
}

func TestSymbolicHandlesNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var x [][]float64
	var y []float64
	for i := 0; i < 100; i++ {
		a := rng.Float64() * 1000
		noise := 1 + rng.NormFloat64()*0.08
		x = append(x, []float64{a})
		y = append(y, (1e-6+2e-8*a)*noise)
	}
	m, err := FitSymbolic(x, y, SymbolicOptions{Seed: 13, Population: 150, Generations: 30})
	if err != nil {
		t.Fatal(err)
	}
	mape, err := EvalMAPE(m, x, y)
	if err != nil {
		t.Fatal(err)
	}
	// Cannot beat the noise floor (≈6.4 %) by much, must not be far above.
	if mape > 12 {
		t.Errorf("noisy-fit MAPE = %v%%", mape)
	}
}

func TestSymbolicDeterministicForSeed(t *testing.T) {
	x := [][]float64{{1}, {2}, {3}, {4}, {5}}
	y := []float64{2, 4, 6, 8, 10}
	opt := SymbolicOptions{Seed: 9, Population: 50, Generations: 10, Restarts: 1}
	a, err := FitSymbolic(x, y, opt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := FitSymbolic(x, y, opt)
	if err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Errorf("same seed, different models:\n%s\n%s", a, b)
	}
}

func TestSymbolicValidation(t *testing.T) {
	if _, err := FitSymbolic(nil, nil, SymbolicOptions{}); err == nil {
		t.Error("empty training set accepted")
	}
	if _, err := FitSymbolic([][]float64{{}}, []float64{1}, SymbolicOptions{}); err == nil {
		t.Error("empty features accepted")
	}
	// Ragged rows: a row shorter or longer than the first.
	for _, x := range [][][]float64{{{1, 2}, {3}}, {{1}, {2, 3}}} {
		if _, err := FitSymbolic(x, []float64{1, 2}, SymbolicOptions{}); err == nil {
			t.Errorf("ragged rows %v accepted", x)
		}
	}
}

func TestSymbolicStringMentionsFeatures(t *testing.T) {
	x := [][]float64{{1, 1}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {6, 3}}
	y := []float64{2, 4, 6, 8, 10, 12}
	m, err := FitSymbolic(x, y, SymbolicOptions{
		Seed: 21, Population: 80, Generations: 15, Restarts: 1,
		FeatureNames: []string{"Np", "Ngp"},
	})
	if err != nil {
		t.Fatal(err)
	}
	s := m.String()
	if !strings.Contains(s, "Np") && !strings.Contains(s, "Ngp") {
		t.Errorf("model %q references no features", s)
	}
	if m.Size() <= 0 {
		t.Errorf("Size = %d", m.Size())
	}
}

func TestSymbolicConstantTargets(t *testing.T) {
	// All-equal targets: calibration must fall back to the mean without
	// NaN fitness.
	x := [][]float64{{1}, {2}, {3}, {4}}
	y := []float64{5, 5, 5, 5}
	m, err := FitSymbolic(x, y, SymbolicOptions{Seed: 2, Population: 40, Generations: 5, Restarts: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, xi := range x {
		v, err := m.Predict(xi)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(v-5) > 0.5 {
			t.Errorf("Predict(%v) = %v, want ≈5", xi, v)
		}
	}
}

func TestNodeRenderAllOps(t *testing.T) {
	names := []string{"Np", "N"}
	v0 := &node{op: opVar, idx: 0}
	v1 := &node{op: opVar, idx: 1}
	c := &node{op: opConst, val: 2.5}
	tree := &node{
		op: opAdd,
		l:  &node{op: opSub, l: &node{op: opMul, l: v0, r: v1}, r: &node{op: opDiv, l: v0, r: c}},
		r:  &node{op: opLog, l: v1},
	}
	got := tree.render(names)
	want := "(((Np*N) - (Np/2.5)) + log1p(N))"
	if got != want {
		t.Errorf("render = %q, want %q", got, want)
	}
	// Out-of-range variable index falls back to positional naming.
	anon := &node{op: opVar, idx: 7}
	if s := anon.render(names); s != "x7" {
		t.Errorf("anon render = %q", s)
	}
	// Evaluation agrees with the rendered formula at a sample point.
	x := []float64{3, 4}
	want2 := (3*4 - 3/2.5) + math.Log1p(4)
	if got, err := tree.eval(x); err != nil || math.Abs(got-want2) > 1e-12 {
		t.Errorf("eval = %v (err %v), want %v", got, err, want2)
	}
	// Protected division: tiny denominator returns the numerator.
	div := &node{op: opDiv, l: c, r: &node{op: opConst, val: 1e-15}}
	if got, err := div.eval(x); err != nil || got != 2.5 {
		t.Errorf("protected division = %v (err %v), want 2.5", got, err)
	}
	// A malformed tree surfaces as an error, not a panic: an unknown op
	// and a variable index beyond the feature vector.
	if _, err := (&node{op: opKind(99)}).eval(x); err == nil {
		t.Error("bad op evaluated without error")
	}
	if _, err := anon.eval(x); err == nil {
		t.Error("out-of-range variable evaluated without error")
	}
	// Compilation rejects the same malformed trees, at any position in the
	// tree, and the compiled fitness scores them unfit.
	fd := newFitData([][]float64{x, {5, 6}}, []float64{1, 2})
	var sc scratch
	for _, bad := range []*node{
		{op: opKind(99)},
		anon,
		{op: opVar, idx: len(x)},
		{op: opVar, idx: -1},
		{op: opAdd, l: v0, r: &node{op: opLog, l: anon}},
		{op: opMul, l: &node{op: opKind(99)}, r: c},
	} {
		if _, _, err := compile(nil, bad, len(x)); err == nil {
			t.Errorf("malformed tree %s compiled without error", bad.render(names))
		}
		if scale, shift, fit := sc.score(bad, fd); scale != 1 || shift != 0 || !math.IsInf(fit, 1) {
			t.Errorf("malformed tree %s scored (%v, %v, %v), want (1, 0, +Inf)", bad.render(names), scale, shift, fit)
		}
	}
	if _, _, err := compile(nil, tree, len(x)); err != nil {
		t.Errorf("well-formed tree rejected: %v", err)
	}
}

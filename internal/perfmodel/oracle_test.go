package perfmodel

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// oracleCalibrate is the tree-walking fitness evaluation the compiled
// column programs replaced, kept verbatim as their reference: it walks t
// once per sample and accumulates the calibration sums as it goes.
func oracleCalibrate(t *node, x [][]float64, y []float64, yScale float64) (scale, shift, fitness float64) {
	floor := 1e-3 * yScale
	if floor <= 0 {
		floor = 1
	}
	var sw, swT, swY, swTT, swTY float64
	outs := make([]float64, len(y))
	ws := make([]float64, len(y))
	for i := range x {
		v, err := t.eval(x[i])
		if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
			// A tree that cannot be evaluated is simply unfit.
			return 1, 0, math.Inf(1)
		}
		outs[i] = v
		d := math.Abs(y[i])
		if d < floor {
			d = floor
		}
		w := 1 / (d * d)
		ws[i] = w
		sw += w
		swT += w * v
		swY += w * y[i]
		swTT += w * v * v
		swTY += w * v * y[i]
	}
	den := sw*swTT - swT*swT
	if math.Abs(den) < 1e-30 {
		// Constant tree: best fit is the weighted mean.
		scale, shift = 0, swY/sw
	} else {
		scale = (sw*swTY - swT*swY) / den
		shift = (swY - scale*swT) / sw
	}
	var sse float64
	for i := range outs {
		d := scale*outs[i] + shift - y[i]
		sse += ws[i] * d * d
	}
	relRMSE := math.Sqrt(sse / float64(len(y)))
	if math.IsNaN(relRMSE) || math.IsInf(relRMSE, 0) {
		return 1, 0, math.Inf(1)
	}
	return scale, shift, relRMSE
}

// oracleYScale is the yScale runGP handed the tree-walking calibrate.
func oracleYScale(y []float64) float64 {
	if s := meanAbs(y); s != 0 {
		return s
	}
	return 1
}

// awkward holds the values the compiled path must treat exactly as the
// tree walk does: signed zeros and denominators on either side of the
// protected-division threshold, non-finite features, and magnitudes whose
// products overflow before log1p sees them.
var awkward = []float64{
	0, math.Copysign(0, -1),
	1e-12, -1e-12, math.Nextafter(1e-12, 0), math.Nextafter(1e-12, 1), -math.Nextafter(1e-12, 0),
	5e-13, -3e-13, 1e-300, 5e-324,
	math.NaN(), math.Inf(1), math.Inf(-1),
	1e300, -1e300, math.MaxFloat64, 1e308,
}

// randDataSet draws a small training set. Features mix ordinary values
// with awkward ones at a per-set rate (zero for some sets, so most trees
// there stay fit), and targets include zeros and values below the
// relative-weight floor.
func randDataSet(rng *rand.Rand) ([][]float64, []float64) {
	n := 1 + rng.Intn(24)
	nvars := 1 + rng.Intn(5)
	rate := []float64{0, 0, 0.05, 0.2}[rng.Intn(4)]
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = make([]float64, nvars)
		for j := range x[i] {
			if rng.Float64() < rate {
				x[i][j] = awkward[rng.Intn(len(awkward))]
			} else {
				x[i][j] = randConst(rng) * float64(1+rng.Intn(1000))
			}
		}
		switch p := rng.Float64(); {
		case p < 0.1:
			y[i] = 0
		case p < 0.2:
			y[i] = 1e-9 * rng.Float64() // below 1e-3 of a typical mean
		default:
			y[i] = math.Abs(randConst(rng))
		}
	}
	return x, y
}

// randOracleTree grows a random tree, deepens some past MaxDepth+2 by
// repeated subtree mutation (as the GP does, unpruned), and swaps some
// constants for awkward values.
func randOracleTree(rng *rand.Rand, nvars int) *node {
	t := randTree(rng, nvars, 1+rng.Intn(7))
	if rng.Intn(3) == 0 {
		for k := 0; k < 1+rng.Intn(20); k++ {
			mutateSubtree(rng, t, nvars, 5)
		}
	}
	for _, n := range t.nodes(nil) {
		if n.op == opConst && rng.Intn(3) == 0 {
			n.val = awkward[rng.Intn(len(awkward))]
		}
	}
	return t
}

func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

func TestCompiledCalibrateMatchesTree(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const sets, treesPerSet = 500, 24
	var trees, fit, deep int
	for s := 0; s < sets; s++ {
		x, y := randDataSet(rng)
		fd := newFitData(x, y)
		yScale := oracleYScale(y)
		var sc scratch
		for k := 0; k < treesPerSet; k++ {
			tree := randOracleTree(rng, len(x[0]))
			trees++
			if depthOf(tree) > 5+2 {
				deep++
			}
			// Every sample's output is the tree walk's (NaN for NaN).
			code, depth, err := compile(nil, tree, len(x[0]))
			if err != nil {
				t.Fatalf("set %d: well-formed tree failed to compile: %v", s, err)
			}
			outs := sc.run(code, depth, fd)
			for i := range x {
				want, err := tree.eval(x[i])
				if err != nil {
					t.Fatal(err)
				}
				if !sameFloat(outs[i], want) {
					t.Fatalf("set %d, sample %d: column %v (%#x), tree %v (%#x) for %s",
						s, i, outs[i], math.Float64bits(outs[i]), want, math.Float64bits(want), tree.render(nil))
				}
			}
			gs, gh, gf := sc.score(tree, fd)
			ws, wh, wf := oracleCalibrate(tree, x, y, yScale)
			if math.Float64bits(gs) != math.Float64bits(ws) || math.Float64bits(gh) != math.Float64bits(wh) ||
				math.Float64bits(gf) != math.Float64bits(wf) {
				t.Fatalf("set %d: compiled (%v, %v, %v), tree (%v, %v, %v) for %s over x=%v y=%v",
					s, gs, gh, gf, ws, wh, wf, tree.render(nil), x, y)
			}
			if !math.IsInf(wf, 1) {
				fit++
			}
		}
	}
	// The generators must reach both outcomes and the deep trees, or the
	// comparison above proves little.
	if fit < trees/4 || fit > trees-trees/20 || deep < trees/50 {
		t.Errorf("weak coverage: %d trees, %d fit, %d deeper than MaxDepth+2", trees, fit, deep)
	}
}

func TestFitSymbolicRestartOrder(t *testing.T) {
	x, y := benchData(40)
	// All-zero targets calibrate every finite tree to zero error, so the
	// restarts tie on fitness (parsimony alone) and only the pick order
	// decides between their different trees.
	zeros := make([]float64, len(y))
	for _, tc := range []struct {
		name string
		y    []float64
		tied bool
	}{{"distinct", y, false}, {"tied", zeros, true}} {
		t.Run(tc.name, func(t *testing.T) {
			base := SymbolicOptions{Seed: 5, Population: 40, Generations: 8, MaxDepth: 4, FeatureNames: []string{"Np", "N"}}
			opts := base
			opts.Restarts = 3
			got, err := FitSymbolic(x, tc.y, opts)
			if err != nil {
				t.Fatal(err)
			}
			var want *SymbolicModel
			fits := map[uint64]bool{}
			var roots []*node
			for r := 0; r < 3; r++ {
				one := base
				one.Restarts, one.Seed = 1, base.Seed+int64(r)*7919
				m, err := FitSymbolic(x, tc.y, one)
				if err != nil {
					t.Fatal(err)
				}
				fits[math.Float64bits(m.Fitness)] = true
				roots = append(roots, m.root)
				if want == nil || m.Fitness < want.Fitness {
					want = m
				}
			}
			sameTrees := reflect.DeepEqual(roots[0], roots[1]) && reflect.DeepEqual(roots[0], roots[2])
			if tc.tied && (len(fits) != 1 || sameTrees) {
				t.Fatalf("want restarts tied on fitness with different trees, got %d fitness values, identical trees %v", len(fits), sameTrees)
			}
			if !tc.tied && len(fits) < 2 {
				t.Fatalf("restarts reached %d distinct fitness values; the pick is untested", len(fits))
			}
			if !reflect.DeepEqual(got.root, want.root) ||
				math.Float64bits(got.scale) != math.Float64bits(want.scale) ||
				math.Float64bits(got.shift) != math.Float64bits(want.shift) ||
				math.Float64bits(got.Fitness) != math.Float64bits(want.Fitness) {
				t.Errorf("Restarts: 3 gave %s (fitness %v), first best single restart %s (fitness %v)",
					got, got.Fitness, want, want.Fitness)
			}
		})
	}
}

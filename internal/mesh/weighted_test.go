package mesh

import (
	"testing"
)

func TestDecomposeWeightedValidation(t *testing.T) {
	m := mustMesh(t, 4, 4, 1)
	if _, err := DecomposeWeighted(m, 0, make([]float64, m.NumElements())); err == nil {
		t.Error("R=0 accepted")
	}
	if _, err := DecomposeWeighted(m, 4, make([]float64, 3)); err == nil {
		t.Error("short weight vector accepted")
	}
	bad := make([]float64, m.NumElements())
	bad[5] = -1
	if _, err := DecomposeWeighted(m, 4, bad); err == nil {
		t.Error("negative weight accepted")
	}
}

// Equal weights must reproduce the unweighted bisection bit for bit — the
// property that makes the weighted path a strict generalisation.
func TestDecomposeWeightedDegeneratesToUnweighted(t *testing.T) {
	m := mustMesh(t, 6, 5, 4)
	for _, ranks := range []int{1, 3, 7, 16} {
		base, err := Decompose(m, ranks)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []float64{0, 1, 2.5} {
			weights := make([]float64, m.NumElements())
			for e := range weights {
				weights[e] = w
			}
			d, err := DecomposeWeighted(m, ranks, weights)
			if err != nil {
				t.Fatal(err)
			}
			for e := range d.Owner {
				if d.Owner[e] != base.Owner[e] {
					t.Fatalf("R=%d w=%g: Owner[%d] = %d, want %d", ranks, w, e, d.Owner[e], base.Owner[e])
				}
			}
		}
	}
}

func TestDecomposeWeightedBalancesSkewedLoad(t *testing.T) {
	m := mustMesh(t, 8, 8, 1) // 64 elements
	weights := make([]float64, m.NumElements())
	for e := range weights {
		weights[e] = 1
	}
	// One corner element carries half the total load.
	weights[0] = 64
	d, err := DecomposeWeighted(m, 4, weights)
	if err != nil {
		t.Fatal(err)
	}
	// The heavy element's rank should own far fewer elements than the
	// 16-per-rank count split would give it.
	heavy := d.Owner[0]
	if n := d.NumElementsOf(heavy); n > 8 {
		t.Errorf("heavy rank owns %d elements, want ≤8", n)
	}
	// The heavy element is indivisible, so max-load 64 is the optimum any
	// partition can reach; the weighted cut must achieve (close to) it,
	// where the static count split would stack 64 + its quadrant share.
	loads := make([]float64, 4)
	for e, r := range d.Owner {
		loads[r] += weights[e]
	}
	static, err := Decompose(m, 4)
	if err != nil {
		t.Fatal(err)
	}
	staticMax := 0.0
	staticLoads := make([]float64, 4)
	for e, r := range static.Owner {
		staticLoads[r] += weights[e]
	}
	for _, l := range staticLoads {
		if l > staticMax {
			staticMax = l
		}
	}
	for r, l := range loads {
		if l > 66 {
			t.Errorf("rank %d load %g, want ≤66 (indivisible optimum 64)", r, l)
		}
		if l >= staticMax {
			t.Errorf("rank %d load %g not below the static max %g", r, l, staticMax)
		}
	}
}

// Re-bisection must be bit-identical across repeats and unaffected by prior
// calls mutating shared state — the determinism a mid-run rebalance epoch
// depends on.
func TestDecomposeWeightedDeterministic(t *testing.T) {
	m := mustMesh(t, 6, 6, 2)
	weights := make([]float64, m.NumElements())
	for e := range weights {
		weights[e] = float64((e*31)%13) + 0.5
	}
	first, err := DecomposeWeighted(m, 7, weights)
	if err != nil {
		t.Fatal(err)
	}
	for rep := 0; rep < 5; rep++ {
		// Interleave other decompositions to catch hidden shared state.
		if _, err := Decompose(m, 3); err != nil {
			t.Fatal(err)
		}
		d, err := DecomposeWeighted(m, 7, weights)
		if err != nil {
			t.Fatal(err)
		}
		for e := range d.Owner {
			if d.Owner[e] != first.Owner[e] {
				t.Fatalf("rep %d: Owner[%d] = %d, want %d", rep, e, d.Owner[e], first.Owner[e])
			}
		}
	}
}

func TestFromOwnerRebuildsDecomposition(t *testing.T) {
	m := mustMesh(t, 4, 4, 1)
	base, err := Decompose(m, 4)
	if err != nil {
		t.Fatal(err)
	}
	d, err := FromOwner(m, 4, base.Owner)
	if err != nil {
		t.Fatal(err)
	}
	// The rebuilt decomposition matches the original in every derived view.
	for r := 0; r < 4; r++ {
		if got, want := d.NumElementsOf(r), base.NumElementsOf(r); got != want {
			t.Errorf("rank %d: %d elements, want %d", r, got, want)
		}
		if got, want := rankBox(m, d, r), rankBox(m, base, r); got != want {
			t.Errorf("rank %d: box %+v, want %+v", r, got, want)
		}
	}
	// Input aliasing: FromOwner copies, so mutating the source later must
	// not corrupt the decomposition.
	src := append([]int(nil), base.Owner...)
	d2, err := FromOwner(m, 4, src)
	if err != nil {
		t.Fatal(err)
	}
	src[0] = 3
	if d2.Owner[0] != base.Owner[0] {
		t.Error("FromOwner aliased the input slice")
	}
}

func TestFromOwnerValidation(t *testing.T) {
	m := mustMesh(t, 4, 4, 1)
	if _, err := FromOwner(m, 0, make([]int, m.NumElements())); err == nil {
		t.Error("R=0 accepted")
	}
	if _, err := FromOwner(m, 4, make([]int, 3)); err == nil {
		t.Error("short owner slice accepted")
	}
	bad := make([]int, m.NumElements())
	bad[7] = 4
	if _, err := FromOwner(m, 4, bad); err == nil {
		t.Error("out-of-range rank accepted")
	}
	bad[7] = -1
	if _, err := FromOwner(m, 4, bad); err == nil {
		t.Error("negative rank accepted")
	}
}

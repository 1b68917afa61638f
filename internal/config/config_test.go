package config

import (
	"strings"
	"testing"

	"picpredict"
)

func TestLoadValid(t *testing.T) {
	f, err := Load(strings.NewReader(`{
		"ranks": 1044,
		"mapping": "bin",
		"filterRadius": 0.00428,
		"relaxedBins": true
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if f.Ranks != 1044 || f.Mapping != "bin" || !f.RelaxedBins {
		t.Errorf("parsed: %+v", f)
	}
	opts := f.WorkloadOptions()
	if opts.Ranks != 1044 || opts.Mapping != picpredict.MappingBin || opts.FilterRadius != 0.00428 {
		t.Errorf("options: %+v", opts)
	}
}

func TestLoadElementNeedsMesh(t *testing.T) {
	if _, err := Load(strings.NewReader(`{"ranks": 4, "mapping": "element"}`)); err == nil {
		t.Error("element mapping without elements accepted")
	}
	f, err := Load(strings.NewReader(`{"ranks": 4, "mapping": "element", "elements": [16,16,1], "gridN": 4}`))
	if err != nil {
		t.Fatal(err)
	}
	if f.Elements != [3]int{16, 16, 1} {
		t.Errorf("elements: %v", f.Elements)
	}
}

func TestLoadRejectsBadInput(t *testing.T) {
	cases := []string{
		`{"ranks": 0, "mapping": "bin"}`,                     // non-positive ranks
		`{"ranks": 4}`,                                       // missing mapping
		`{"ranks": 4, "mapping": "quantum"}`,                 // unknown mapping
		`{"ranks": 4, "mapping": "bin", "filterRadius": -1}`, // negative filter
		`{"ranks": 4, "mapping": "bin", "speed": 9000}`,      // unknown field
		`{not json`,
	}
	for i, c := range cases {
		if _, err := Load(strings.NewReader(c)); err == nil {
			t.Errorf("case %d accepted: %s", i, c)
		}
	}
}

func TestLoadPathMissing(t *testing.T) {
	if _, err := LoadPath("/nonexistent/config.json"); err == nil {
		t.Error("missing file accepted")
	}
}

func TestApplyMesh(t *testing.T) {
	// A trace loaded from disk lacks mesh info; ApplyMesh must supply it
	// for element mapping. Exercised end-to-end through a real trace.
	spec := picpredict.HeleShaw().
		WithParticles(200).
		WithElements(8, 8, 1).
		WithSteps(40).
		WithSampleEvery(20)
	tr, err := spec.Run()
	if err != nil {
		t.Fatal(err)
	}
	var f File
	f, err = Load(strings.NewReader(`{"ranks": 4, "mapping": "element", "elements": [8,8,1], "gridN": 4}`))
	if err != nil {
		t.Fatal(err)
	}
	f.ApplyMesh(tr)
	if _, err := tr.GenerateWorkload(f.WorkloadOptions()); err != nil {
		t.Errorf("workload with config mesh: %v", err)
	}
}

// TestEveryMappingLoads: every mapping kind picpredict implements loads from
// a configuration file, and ApplyMesh gives every kind but bin the
// configured element grid, so each generates a workload from a mesh-less
// trace.
func TestEveryMappingLoads(t *testing.T) {
	positions := make([][3]float64, 0, 2*16)
	for f := 0; f < 2; f++ {
		for i := 0; i < 16; i++ {
			positions = append(positions, [3]float64{0.05 + 0.06*float64(i), 0.3 + 0.1*float64(f), 0.5})
		}
	}
	for _, k := range picpredict.MappingKinds() {
		f, err := Load(strings.NewReader(`{"ranks": 4, "mapping": "` + string(k) + `", "elements": [4,4,1], "gridN": 2}`))
		if err != nil {
			t.Errorf("%s: %v", k, err)
			continue
		}
		tr, err := picpredict.NewTraceFromFrames([2][3]float64{{0, 0, 0}, {1, 1, 1}}, 16, 10, []int{0, 10}, positions)
		if err != nil {
			t.Fatal(err)
		}
		f.ApplyMesh(tr)
		if _, _, ok := tr.Mesh(); ok != (k != picpredict.MappingBin) {
			t.Errorf("%s: mesh attached = %v", k, ok)
		}
		if _, err := tr.GenerateWorkload(f.WorkloadOptions()); err != nil {
			t.Errorf("%s: %v", k, err)
		}
	}
}

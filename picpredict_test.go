package picpredict

import (
	"bytes"
	"math"
	"strings"
	"sync"
	"testing"
)

// tinyScenario is a fast Hele-Shaw variant for facade tests.
func tinyScenario() Scenario {
	return HeleShaw().
		WithParticles(400).
		WithElements(16, 16, 1).
		WithSteps(120).
		WithSampleEvery(40).
		WithFilterRadius(0.02).
		WithBurst(0.004, 0)
}

var (
	tinyTraceOnce sync.Once
	tinyTraceVal  *Trace
	tinyTraceErr  error
)

func tinyTrace(t *testing.T) *Trace {
	t.Helper()
	tinyTraceOnce.Do(func() { tinyTraceVal, tinyTraceErr = tinyScenario().Run() })
	if tinyTraceErr != nil {
		t.Fatal(tinyTraceErr)
	}
	return tinyTraceVal
}

func TestScenarioAccessors(t *testing.T) {
	s := tinyScenario()
	if s.Name() != "hele-shaw" || s.NumParticles() != 400 || s.NumElements() != 256 {
		t.Errorf("accessors: %s %d %d", s.Name(), s.NumParticles(), s.NumElements())
	}
	if s.Steps() != 120 || s.SampleEvery() != 40 {
		t.Errorf("steps/sample: %d/%d", s.Steps(), s.SampleEvery())
	}
	if s.FilterRadius() != 0.02 {
		t.Errorf("filter: %v", s.FilterRadius())
	}
	// Filter in element widths: 0.02 / (1/16) = 0.32.
	if f := s.FilterInElements(); f < 0.31 || f > 0.33 {
		t.Errorf("FilterInElements = %v", f)
	}
	if err := s.Validate(); err != nil {
		t.Error(err)
	}
	if err := s.WithParticles(0).Validate(); err == nil {
		t.Error("invalid scenario accepted")
	}
}

func TestScenarioVariants(t *testing.T) {
	for _, s := range []Scenario{HeleShaw(), HeleShawFull(), UniformScenario(), GaussianScenario()} {
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", s.Name(), err)
		}
	}
	if HeleShawFull().NumParticles() != 599257 {
		t.Errorf("full particles = %d", HeleShawFull().NumParticles())
	}
	if HeleShawFull().NumElements() != 216225 {
		t.Errorf("full elements = %d", HeleShawFull().NumElements())
	}
}

func TestTraceRoundTripThroughFile(t *testing.T) {
	tr := tinyTrace(t)
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumParticles() != tr.NumParticles() || back.Frames() != tr.Frames() {
		t.Fatalf("round trip: %d/%d vs %d/%d", back.NumParticles(), back.Frames(), tr.NumParticles(), tr.Frames())
	}
	// A file-loaded trace lacks mesh info: element mapping must fail
	// helpfully, then work after WithMesh.
	if _, err := back.GenerateWorkload(WorkloadOptions{Ranks: 4, Mapping: MappingElement}); err == nil {
		t.Error("element mapping without mesh accepted")
	}
	back.WithMesh(16, 16, 1, 4)
	if _, err := back.GenerateWorkload(WorkloadOptions{Ranks: 4, Mapping: MappingElement}); err != nil {
		t.Errorf("element mapping with mesh failed: %v", err)
	}
}

func TestReadTraceErrors(t *testing.T) {
	if _, err := ReadTrace(strings.NewReader("garbage data here")); err == nil {
		t.Error("garbage accepted")
	}
}

func TestGenerateWorkloadElementVsBin(t *testing.T) {
	tr := tinyTrace(t)
	elem, err := tr.GenerateWorkload(WorkloadOptions{Ranks: 64, Mapping: MappingElement, FilterRadius: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	bin, err := tr.GenerateWorkload(WorkloadOptions{Ranks: 64, Mapping: MappingBin, FilterRadius: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	// The central claim (Fig 8): bin mapping slashes peak workload for a
	// clustered bed.
	if bin.Peak() >= elem.Peak() {
		t.Errorf("bin peak %d not below element peak %d", bin.Peak(), elem.Peak())
	}
	// And lifts utilization (Fig 9).
	ue, ub := elem.Utilization(), bin.Utilization()
	if ub.Mean <= ue.Mean {
		t.Errorf("bin RU %v not above element RU %v", ub.Mean, ue.Mean)
	}
	// Bin bookkeeping present only for bin mapping.
	if len(bin.BinsPerFrame()) != bin.Frames() {
		t.Errorf("BinsPerFrame len %d, frames %d", len(bin.BinsPerFrame()), bin.Frames())
	}
	if elem.BinsPerFrame() != nil {
		t.Error("element workload has bin counts")
	}
}

func TestGenerateWorkloadHilbert(t *testing.T) {
	tr := tinyTrace(t)
	wl, err := tr.GenerateWorkload(WorkloadOptions{Ranks: 8, Mapping: MappingHilbert})
	if err != nil {
		t.Fatal(err)
	}
	if wl.Ranks() != 8 || wl.Frames() != tr.Frames() {
		t.Fatalf("hilbert workload: %d ranks %d frames", wl.Ranks(), wl.Frames())
	}
	// Hilbert mapping balances counts exactly (equal chunks).
	if wl.Imbalance() > 1.2 {
		t.Errorf("hilbert imbalance %v", wl.Imbalance())
	}
}

func TestGenerateWorkloadValidation(t *testing.T) {
	tr := tinyTrace(t)
	if _, err := tr.GenerateWorkload(WorkloadOptions{Ranks: 0, Mapping: MappingBin}); err == nil {
		t.Error("zero ranks accepted")
	}
	if _, err := tr.GenerateWorkload(WorkloadOptions{Ranks: 4, Mapping: "nope"}); err == nil {
		t.Error("unknown mapping accepted")
	}
}

func TestWorkloadMatrixAccessors(t *testing.T) {
	tr := tinyTrace(t)
	wl, err := tr.GenerateWorkload(WorkloadOptions{Ranks: 16, Mapping: MappingBin, FilterRadius: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	// Totals across ranks must equal N_p each frame.
	for k := 0; k < wl.Frames(); k++ {
		var tot int64
		for r := 0; r < wl.Ranks(); r++ {
			tot += wl.At(r, k)
		}
		if tot != int64(tr.NumParticles()) {
			t.Fatalf("frame %d total %d != Np %d", k, tot, tr.NumParticles())
		}
	}
	if len(wl.Iterations()) != wl.Frames() {
		t.Error("Iterations length mismatch")
	}
	if wl.Peak() <= 0 {
		t.Error("zero peak")
	}
	if got := len(wl.PeakPerFrame()); got != wl.Frames() {
		t.Errorf("PeakPerFrame len %d", got)
	}
	if wl.GhostPeak() <= 0 {
		t.Error("no ghosts with positive filter")
	}
	if len(wl.TotalGhosts()) != wl.Frames() {
		t.Error("TotalGhosts length mismatch")
	}
	if mig := wl.MigrationsPerFrame(); len(mig) != wl.Frames() || mig[0] != 0 {
		t.Errorf("migrations: %v", mig)
	}
	// Comm entries are self-consistent.
	var sum int64
	for _, e := range wl.CommAt(1) {
		if e.Src == e.Dst {
			t.Errorf("self comm %+v", e)
		}
		sum += e.Count
	}
	if sum != wl.MigrationsPerFrame()[1] {
		t.Errorf("CommAt(1) sum %d != migrations %d", sum, wl.MigrationsPerFrame()[1])
	}
}

func TestWorkloadHeatmapOutputs(t *testing.T) {
	tr := tinyTrace(t)
	wl, err := tr.GenerateWorkload(WorkloadOptions{Ranks: 8, Mapping: MappingBin})
	if err != nil {
		t.Fatal(err)
	}
	var csv, art bytes.Buffer
	if err := wl.WriteHeatmapCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(csv.String(), "\n"); lines != 9 { // header + 8 ranks
		t.Errorf("csv lines = %d", lines)
	}
	if err := wl.RenderHeatmap(&art, 8, 20); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(art.String(), "peak") {
		t.Errorf("heatmap output: %q", art.String())
	}
}

func TestRelaxedBinsExceedRanks(t *testing.T) {
	tr := tinyTrace(t)
	relaxed, err := tr.GenerateWorkload(WorkloadOptions{
		Ranks: 2, Mapping: MappingBin, FilterRadius: 0.02, RelaxedBins: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if relaxed.MaxBins() <= 2 {
		t.Errorf("relaxed MaxBins = %d, want > ranks", relaxed.MaxBins())
	}
	limited, err := tr.GenerateWorkload(WorkloadOptions{
		Ranks: 2, Mapping: MappingBin, FilterRadius: 0.02,
	})
	if err != nil {
		t.Fatal(err)
	}
	if limited.MaxBins() > 2 {
		t.Errorf("limited MaxBins = %d", limited.MaxBins())
	}
}

func TestMidpointSplitOption(t *testing.T) {
	tr := tinyTrace(t)
	mid, err := tr.GenerateWorkload(WorkloadOptions{
		Ranks: 16, Mapping: MappingBin, MidpointSplit: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	med, err := tr.GenerateWorkload(WorkloadOptions{Ranks: 16, Mapping: MappingBin})
	if err != nil {
		t.Fatal(err)
	}
	// Median split balances at least as well as midpoint (ablation claim).
	if med.Imbalance() > mid.Imbalance()+1e-9 {
		t.Errorf("median imbalance %v worse than midpoint %v", med.Imbalance(), mid.Imbalance())
	}
}

func TestParticleBoundsGrow(t *testing.T) {
	tr := tinyTrace(t)
	first, last := tr.ParticleBounds(0), tr.ParticleBounds(tr.Frames()-1)
	w0 := first[1][0] - first[0][0]
	w1 := last[1][0] - last[0][0]
	if w1 <= w0 {
		t.Errorf("particle boundary did not expand: %v -> %v", w0, w1)
	}
}

func TestGenerateWorkloadWeighted(t *testing.T) {
	tr := tinyTrace(t)
	wl, err := tr.GenerateWorkload(WorkloadOptions{Ranks: 8, Mapping: MappingWeighted})
	if err != nil {
		t.Fatal(err)
	}
	if wl.Ranks() != 8 || wl.Frames() != tr.Frames() {
		t.Fatalf("weighted workload: %d ranks %d frames", wl.Ranks(), wl.Frames())
	}
	// Both mappers are bounded below by the heaviest single element; the
	// weighted mapper must never be worse and must balance better overall.
	elem, err := tr.GenerateWorkload(WorkloadOptions{Ranks: 8, Mapping: MappingElement})
	if err != nil {
		t.Fatal(err)
	}
	if wl.Peak() > elem.Peak() {
		t.Errorf("weighted peak %d above element peak %d", wl.Peak(), elem.Peak())
	}
	// At this tiny scale the single heaviest element bounds both mappers,
	// so require only no-worse balance here; the mapping package's tests
	// cover the strict improvement at realistic granularity.
	if wl.Imbalance() > elem.Imbalance()+1e-9 {
		t.Errorf("weighted imbalance %.1f above element %.1f", wl.Imbalance(), elem.Imbalance())
	}
}

func TestTraceExtrapolate(t *testing.T) {
	tr := tinyTrace(t)
	big, err := tr.Extrapolate(4, 99)
	if err != nil {
		t.Fatal(err)
	}
	if big.NumParticles() != 4*tr.NumParticles() {
		t.Fatalf("extrapolated Np = %d", big.NumParticles())
	}
	if big.Frames() != tr.Frames() || big.SampleEvery() != tr.SampleEvery() {
		t.Errorf("metadata changed: %d frames, every %d", big.Frames(), big.SampleEvery())
	}
	// Workload distribution scales with the population: peak ≈ 4× at the
	// same rank count, same mapping.
	opts := WorkloadOptions{Ranks: 16, Mapping: MappingBin, FilterRadius: 0.02}
	small, err := tr.GenerateWorkload(opts)
	if err != nil {
		t.Fatal(err)
	}
	large, err := big.GenerateWorkload(opts)
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(large.Peak()) / float64(small.Peak())
	if ratio < 2.5 || ratio > 6 {
		t.Errorf("extrapolated peak ratio = %.2f, want ≈4", ratio)
	}
	// The extrapolated trace keeps the mesh, so element mapping works.
	if _, err := big.GenerateWorkload(WorkloadOptions{Ranks: 8, Mapping: MappingElement}); err != nil {
		t.Errorf("element mapping on extrapolated trace: %v", err)
	}
	if _, err := tr.Extrapolate(0, 1); err == nil {
		t.Error("factor 0 accepted")
	}
}

func TestWriteCommCSV(t *testing.T) {
	tr := tinyTrace(t)
	wl, err := tr.GenerateWorkload(WorkloadOptions{Ranks: 16, Mapping: MappingBin})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := wl.WriteCommCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if lines[0] != "interval,iteration,src,dst,count" {
		t.Fatalf("header = %q", lines[0])
	}
	// Row count equals total non-zero comm entries.
	want := 0
	for k := 0; k < wl.Frames(); k++ {
		want += len(wl.CommAt(k))
	}
	if len(lines)-1 != want {
		t.Errorf("csv rows = %d, want %d", len(lines)-1, want)
	}
}

func TestScenarioWriteTraceAndOptions(t *testing.T) {
	s := tinyScenario().WithSeed(777).WithCollisions(1e-4)
	var buf bytes.Buffer
	if err := s.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	tr, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if tr.NumParticles() != s.NumParticles() {
		t.Errorf("trace Np = %d", tr.NumParticles())
	}
	// Domain and iterations accessors.
	d := tr.Domain()
	if d[1][0] <= d[0][0] {
		t.Errorf("domain = %v", d)
	}
	if len(tr.Iterations()) != tr.Frames() {
		t.Error("Iterations length mismatch")
	}
	// Seed changes the run deterministically.
	a, err := tinyScenario().WithSeed(1).Run()
	if err != nil {
		t.Fatal(err)
	}
	b, err := tinyScenario().WithSeed(2).Run()
	if err != nil {
		t.Fatal(err)
	}
	if a.ParticleBounds(0) == b.ParticleBounds(0) {
		// Bounds can coincide (lattice bed); check a position instead.
		if a.frame(0)[0] == b.frame(0)[0] {
			t.Error("different seeds produced identical particles")
		}
	}
	if e := s.Elements(); e != [3]int{16, 16, 1} {
		t.Errorf("Elements = %v", e)
	}
}

func TestShockTubeScenarioFacade(t *testing.T) {
	s := ShockTubeScenario().
		WithParticles(300).
		WithElements(32, 8, 1).
		WithSteps(80).
		WithSampleEvery(40)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	tr, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if tr.Frames() != 3 {
		t.Errorf("frames = %d", tr.Frames())
	}
	// Element mapping works straight off the scenario-built trace.
	wl, err := tr.GenerateWorkload(WorkloadOptions{Ranks: 8, Mapping: MappingElement})
	if err != nil {
		t.Fatal(err)
	}
	if wl.Peak() <= 0 {
		t.Error("empty workload")
	}
	// No ghosts requested: GhostAt is zero, TotalGhosts nil.
	if wl.GhostAt(0, 0) != 0 || wl.TotalGhosts() != nil {
		t.Error("ghost data without filter")
	}
	nz := wl.NonZeroRanksPerFrame()
	if len(nz) != wl.Frames() || nz[0] <= 0 {
		t.Errorf("NonZeroRanksPerFrame = %v", nz)
	}
}

func TestWriteCompressedRoundTrip(t *testing.T) {
	tr := tinyTrace(t)
	var raw, packed bytes.Buffer
	if err := tr.Write(&raw); err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteCompressed(&packed); err != nil {
		t.Fatal(err)
	}
	if packed.Len() >= raw.Len() {
		t.Errorf("compressed %d bytes not smaller than raw %d", packed.Len(), raw.Len())
	}
	back, err := ReadTrace(&packed)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumParticles() != tr.NumParticles() || back.Frames() != tr.Frames() {
		t.Fatalf("compressed round trip: %d/%d", back.NumParticles(), back.Frames())
	}
}

func TestWithWorkersTraceIdentical(t *testing.T) {
	serial, err := tinyScenario().Run()
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := tinyScenario().WithWorkers(4).Run()
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < serial.Frames(); k++ {
		a, b := serial.frame(k), parallel.frame(k)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("frame %d particle %d differs across worker counts", k, i)
			}
		}
	}
}

func TestTraceDownsample(t *testing.T) {
	tr := tinyTrace(t) // 4 frames at every-40 sampling
	down, err := tr.Downsample(2)
	if err != nil {
		t.Fatal(err)
	}
	if down.Frames() != 2 || down.SampleEvery() != 80 {
		t.Fatalf("downsampled: %d frames, every %d", down.Frames(), down.SampleEvery())
	}
	if down.Iterations()[0] != tr.Iterations()[0] || down.Iterations()[1] != tr.Iterations()[2] {
		t.Errorf("kept iterations %v from %v", down.Iterations(), tr.Iterations())
	}
	// Workload generation still works; peak from the coarser trace equals
	// the peak computed over the kept frames of the fine trace.
	opts := WorkloadOptions{Ranks: 8, Mapping: MappingBin}
	fine, err := tr.GenerateWorkload(opts)
	if err != nil {
		t.Fatal(err)
	}
	coarse, err := down.GenerateWorkload(opts)
	if err != nil {
		t.Fatal(err)
	}
	finePeaks := fine.PeakPerFrame()
	coarsePeaks := coarse.PeakPerFrame()
	for i, k := range []int{0, 2} {
		if coarsePeaks[i] != finePeaks[k] {
			t.Errorf("coarse peak %d = %d, fine frame %d = %d", i, coarsePeaks[i], k, finePeaks[k])
		}
	}
	if _, err := tr.Downsample(0); err == nil {
		t.Error("factor 0 accepted")
	}
	// Mesh metadata survives: element mapping still possible.
	if _, err := down.GenerateWorkload(WorkloadOptions{Ranks: 4, Mapping: MappingElement}); err != nil {
		t.Errorf("element mapping after downsample: %v", err)
	}
}

func TestGhostCommAt(t *testing.T) {
	tr := tinyTrace(t)
	wl, err := tr.GenerateWorkload(WorkloadOptions{Ranks: 16, Mapping: MappingBin, FilterRadius: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	// Ghost comm totals per frame match GhostAt sums.
	for k := 0; k < wl.Frames(); k++ {
		var commTotal, compTotal int64
		for _, e := range wl.GhostCommAt(k) {
			commTotal += e.Count
		}
		for r := 0; r < wl.Ranks(); r++ {
			compTotal += wl.GhostAt(r, k)
		}
		if commTotal != compTotal {
			t.Fatalf("frame %d: ghost comm %d != ghost comp %d", k, commTotal, compTotal)
		}
	}
	// Disabled ghosts: nil.
	plain, err := tr.GenerateWorkload(WorkloadOptions{Ranks: 16, Mapping: MappingBin})
	if err != nil {
		t.Fatal(err)
	}
	if plain.GhostCommAt(0) != nil {
		t.Error("ghost comm without filter")
	}
}

func TestWorkloadWriteReadFacade(t *testing.T) {
	tr := tinyTrace(t)
	wl, err := tr.GenerateWorkload(WorkloadOptions{Ranks: 16, Mapping: MappingBin, FilterRadius: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := wl.Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadWorkload(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Peak() != wl.Peak() || back.Ranks() != wl.Ranks() || back.Frames() != wl.Frames() {
		t.Fatalf("round trip: peak %d/%d ranks %d/%d", back.Peak(), wl.Peak(), back.Ranks(), wl.Ranks())
	}
	if back.GhostPeak() != wl.GhostPeak() {
		t.Errorf("ghost peak %d vs %d", back.GhostPeak(), wl.GhostPeak())
	}
	// A loaded workload simulates identically.
	p, err := NewPlatform(sharedModels(t), PlatformOptions{TotalElements: 256, N: 4, Filter: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	a, err := p.SimulateBSP(wl)
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.SimulateBSP(back)
	if err != nil {
		t.Fatal(err)
	}
	if a.Total != b.Total {
		t.Errorf("simulation differs after round trip: %v vs %v", a.Total, b.Total)
	}
	if _, err := ReadWorkload(strings.NewReader("junk")); err == nil {
		t.Error("junk accepted")
	}
}

func TestMachinePresets(t *testing.T) {
	for _, name := range []string{"quartz", "vulcan", "titan"} {
		m, err := MachineByName(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if m.Name != name || m.LatencySec <= 0 || m.BandwidthBps <= 0 || m.BytesPerParticle <= 0 {
			t.Errorf("%s preset: %+v", name, m)
		}
	}
	if _, err := MachineByName("summit"); err == nil {
		t.Error("unknown machine accepted")
	}
	if VulcanMachine().BandwidthBps >= QuartzMachine().BandwidthBps {
		t.Error("Vulcan BG/Q links should be slower than OmniPath")
	}
	if TitanMachine().Name != "titan" {
		t.Error("titan preset wrong")
	}
}

func TestGenerateWorkloadOhHelp(t *testing.T) {
	tr := tinyTrace(t)
	wl, err := tr.GenerateWorkload(WorkloadOptions{Ranks: 8, Mapping: MappingOhHelp})
	if err != nil {
		t.Fatal(err)
	}
	elem, err := tr.GenerateWorkload(WorkloadOptions{Ranks: 8, Mapping: MappingElement})
	if err != nil {
		t.Fatal(err)
	}
	// Helpers cap the peak near the average for the clustered bed.
	if wl.Peak() >= elem.Peak() {
		t.Errorf("ohhelp peak %d not below element peak %d", wl.Peak(), elem.Peak())
	}
	if wl.Imbalance() >= elem.Imbalance() {
		t.Errorf("ohhelp imbalance %.1f not below element %.1f", wl.Imbalance(), elem.Imbalance())
	}
}

// wallTrace is a two-frame, three-particle trace on the unit square whose
// second frame puts particle 1 at x, between two neighbours it shares a
// ghost-query tile with when x is NaN.
func wallTrace(t *testing.T, x float64) *Trace {
	t.Helper()
	tr, err := NewTraceFromFrames([2][3]float64{{0, 0, 0}, {1, 1, 0.01}}, 3, 1, []int{0, 1}, [][3]float64{
		{0.5, 0.5, 0.005}, {0.9, 0.5, 0.005}, {0.52, 0.51, 0.005},
		{0.5, 0.5, 0.005}, {x, 0.5, 0.005}, {0.52, 0.51, 0.005},
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestGenerateWorkloadRejectsNonFinite: a frame with a NaN or infinite
// coordinate is an error naming the frame and the particle under every
// mapping — not a panic in element mapping's batched ghost query, nor a
// silent placement by bin or Hilbert mapping.
func TestGenerateWorkloadRejectsNonFinite(t *testing.T) {
	for _, x := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		tr := wallTrace(t, x).WithMesh(16, 16, 1, 4)
		for _, kind := range MappingKinds() {
			_, err := tr.GenerateWorkload(WorkloadOptions{Ranks: 4, Mapping: kind, FilterRadius: 0.05})
			if err == nil || !strings.Contains(err.Error(), "frame 1: particle 1 ") {
				t.Errorf("x=%g, %s mapping: err %v, want one naming frame 1 and particle 1", x, kind, err)
			}
		}
	}
}

// TestGenerateWorkloadHighFace: on a 49×49×1 unit mesh, where lo + d·n
// rounds below 1, a trace touching the x = 1 wall generates a workload
// under every mapping.
func TestGenerateWorkloadHighFace(t *testing.T) {
	tr := wallTrace(t, 1).WithMesh(49, 49, 1, 4)
	for _, kind := range MappingKinds() {
		if _, err := tr.GenerateWorkload(WorkloadOptions{Ranks: 4, Mapping: kind, FilterRadius: 0.05}); err != nil {
			t.Errorf("%s mapping: %v", kind, err)
		}
	}
}

func TestWorkloadDistribution(t *testing.T) {
	tr := tinyTrace(t)
	elem, err := tr.GenerateWorkload(WorkloadOptions{Ranks: 32, Mapping: MappingElement})
	if err != nil {
		t.Fatal(err)
	}
	bin, err := tr.GenerateWorkload(WorkloadOptions{Ranks: 32, Mapping: MappingBin})
	if err != nil {
		t.Fatal(err)
	}
	de, err := elem.Distribution()
	if err != nil {
		t.Fatal(err)
	}
	db, err := bin.Distribution()
	if err != nil {
		t.Fatal(err)
	}
	// Clustered bed: element mapping is far more unequal than bin mapping.
	if de.Gini <= db.Gini {
		t.Errorf("element Gini %.2f not above bin Gini %.2f", de.Gini, db.Gini)
	}
	if de.Max < de.P99 || de.P99 < de.P50 || de.P50 < de.Min {
		t.Errorf("percentiles unordered: %+v", de)
	}
}

func TestWorkloadOptionsAccessor(t *testing.T) {
	tr := tinyTrace(t)
	opts := WorkloadOptions{Ranks: 8, Mapping: MappingBin, FilterRadius: 0.02}
	wl, err := tr.GenerateWorkload(opts)
	if err != nil {
		t.Fatal(err)
	}
	if wl.Options() != opts {
		t.Errorf("Options = %+v, want %+v", wl.Options(), opts)
	}
}

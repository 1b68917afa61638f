package mapping

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"picpredict/internal/geom"
)

func randomCloud(n int, seed int64, box geom.AABB) []geom.Vec3 {
	rng := rand.New(rand.NewSource(seed))
	e := box.Extent()
	pos := make([]geom.Vec3, n)
	for i := range pos {
		pos[i] = box.Lo.Add(geom.V(rng.Float64()*e.X, rng.Float64()*e.Y, rng.Float64()*e.Z))
	}
	return pos
}

func TestBinMapperBalances(t *testing.T) {
	bm := NewBinMapper(8, 0.0)
	pos := randomCloud(800, 1, geom.Box(geom.V(0, 0, 0), geom.V(4, 4, 1)))
	dst := make([]int, len(pos))
	if err := bm.Assign(dst, pos); err != nil {
		t.Fatal(err)
	}
	if bm.NumBins() != 8 {
		t.Fatalf("NumBins = %d, want 8", bm.NumBins())
	}
	counts := make([]int, 8)
	for _, r := range dst {
		counts[r]++
	}
	for r, c := range counts {
		if c < 80 || c > 120 { // perfect is 100; median cuts keep it tight
			t.Errorf("rank %d holds %d particles, want ≈100", r, c)
		}
	}
}

func TestBinMapperThresholdStopsSplitting(t *testing.T) {
	// A tiny cloud with a huge threshold never splits: one bin even with
	// many ranks — the bin-size-threshold behaviour behind Fig 5.
	bm := NewBinMapper(64, 10.0)
	pos := randomCloud(500, 2, geom.Box(geom.V(0, 0, 0), geom.V(1, 1, 0.1)))
	dst := make([]int, len(pos))
	if err := bm.Assign(dst, pos); err != nil {
		t.Fatal(err)
	}
	if bm.NumBins() != 1 {
		t.Errorf("NumBins = %d, want 1 (threshold exceeds cloud size)", bm.NumBins())
	}
	for _, r := range dst {
		if r != 0 {
			t.Fatalf("rank %d assigned from single bin", r)
		}
	}
}

func TestBinMapperThresholdBinsIndependentOfRanks(t *testing.T) {
	// With threshold-limited cuts, the bin count (and hence the peak
	// workload) is the same for any sufficiently large rank count — the
	// flat region of Fig 5.
	pos := randomCloud(2000, 3, geom.Box(geom.V(0, 0, 0), geom.V(2, 2, 0.1)))
	peak := func(ranks int) (int, int) {
		bm := NewBinMapper(ranks, 0.5)
		dst := make([]int, len(pos))
		if err := bm.Assign(dst, pos); err != nil {
			t.Fatal(err)
		}
		counts := map[int]int{}
		for _, r := range dst {
			counts[r]++
		}
		maxC := 0
		for _, c := range counts {
			if c > maxC {
				maxC = c
			}
		}
		return bm.NumBins(), maxC
	}
	bins1, peak1 := peak(1000)
	bins2, peak2 := peak(2000)
	if bins1 >= 1000 {
		t.Fatalf("threshold did not limit bins: %d", bins1)
	}
	if bins1 != bins2 || peak1 != peak2 {
		t.Errorf("bins/peak changed with ranks: (%d,%d) vs (%d,%d)", bins1, peak1, bins2, peak2)
	}
}

func TestBinMapperRelaxedExceedsRanks(t *testing.T) {
	pos := randomCloud(4000, 4, geom.Box(geom.V(0, 0, 0), geom.V(8, 8, 0.1)))
	bm := NewBinMapper(4, 0.5)
	bm.Relaxed = true
	dst := make([]int, len(pos))
	if err := bm.Assign(dst, pos); err != nil {
		t.Fatal(err)
	}
	if bm.NumBins() <= 4 {
		t.Errorf("relaxed NumBins = %d, want > ranks", bm.NumBins())
	}
	// Round-robin rank assignment stays within range.
	for _, r := range dst {
		if r < 0 || r >= 4 {
			t.Fatalf("rank %d out of range", r)
		}
	}
}

func TestBinMapperBinBoxThreshold(t *testing.T) {
	pos := randomCloud(3000, 5, geom.Box(geom.V(0, 0, 0), geom.V(4, 4, 0.1)))
	bm := NewBinMapper(3000, 0.8) // rank limit out of the way
	dst := make([]int, len(pos))
	if err := bm.Assign(dst, pos); err != nil {
		t.Fatal(err)
	}
	for i, b := range bm.Bins() {
		if b.Box.MaxExtent() > 0.8+1e-9 {
			// A parent bin is only split while ABOVE threshold, so leaves
			// may exceed it only if they were unsplittable (1 particle).
			if b.Count > 1 {
				t.Errorf("bin %d extent %v exceeds threshold with %d particles", i, b.Box.MaxExtent(), b.Count)
			}
		}
	}
}

func TestBinMapperCountsConsistent(t *testing.T) {
	pos := randomCloud(777, 6, geom.Box(geom.V(0, 0, 0), geom.V(4, 4, 1)))
	bm := NewBinMapper(16, 0)
	dst := make([]int, len(pos))
	if err := bm.Assign(dst, pos); err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, b := range bm.Bins() {
		total += b.Count
		if b.Count == 0 {
			t.Error("empty bin produced")
		}
	}
	if total != len(pos) {
		t.Errorf("bin counts sum to %d, want %d", total, len(pos))
	}
	// dst agrees with bin ranks.
	counts := map[int]int{}
	for _, r := range dst {
		counts[r]++
	}
	binCounts := map[int]int{}
	for _, b := range bm.Bins() {
		binCounts[b.Rank] += b.Count
	}
	for r, c := range counts {
		if binCounts[r] != c {
			t.Errorf("rank %d: dst says %d, bins say %d", r, c, binCounts[r])
		}
	}
}

func TestBinMapperFewParticles(t *testing.T) {
	bm := NewBinMapper(16, 0)
	pos := []geom.Vec3{{X: 1, Y: 1, Z: 0}, {X: 2, Y: 2, Z: 0}, {X: 3, Y: 1, Z: 0}}
	dst := make([]int, 3)
	if err := bm.Assign(dst, pos); err != nil {
		t.Fatal(err)
	}
	if bm.NumBins() != 3 {
		t.Errorf("NumBins = %d, want 3 (one per particle)", bm.NumBins())
	}
	if err := bm.Assign(nil, nil); err != nil {
		t.Fatal(err)
	}
	if bm.NumBins() != 0 {
		t.Errorf("empty frame NumBins = %d", bm.NumBins())
	}
}

func TestBinMapperIdenticalPositions(t *testing.T) {
	bm := NewBinMapper(8, 0)
	pos := make([]geom.Vec3, 50)
	for i := range pos {
		pos[i] = geom.V(1, 1, 1)
	}
	dst := make([]int, 50)
	if err := bm.Assign(dst, pos); err != nil {
		t.Fatal(err)
	}
	// Coincident particles form one zero-extent bin.
	if bm.NumBins() != 1 {
		t.Errorf("NumBins = %d, want 1", bm.NumBins())
	}
}

func TestBinMapperDeterministic(t *testing.T) {
	pos := randomCloud(500, 7, geom.Box(geom.V(0, 0, 0), geom.V(4, 4, 1)))
	a := NewBinMapper(16, 0.2)
	b := NewBinMapper(16, 0.2)
	da, db := make([]int, 500), make([]int, 500)
	if err := a.Assign(da, pos); err != nil {
		t.Fatal(err)
	}
	if err := b.Assign(db, pos); err != nil {
		t.Fatal(err)
	}
	for i := range da {
		if da[i] != db[i] {
			t.Fatalf("non-deterministic at %d", i)
		}
	}
}

func TestBinMapperMidpointPolicy(t *testing.T) {
	pos := randomCloud(1000, 8, geom.Box(geom.V(0, 0, 0), geom.V(4, 4, 1)))
	bm := NewBinMapper(8, 0)
	bm.Policy = SplitMidpoint
	dst := make([]int, len(pos))
	if err := bm.Assign(dst, pos); err != nil {
		t.Fatal(err)
	}
	if bm.NumBins() != 8 {
		t.Fatalf("NumBins = %d", bm.NumBins())
	}
	// Midpoint splits still produce non-empty bins.
	for i, b := range bm.Bins() {
		if b.Count == 0 {
			t.Errorf("bin %d empty under midpoint policy", i)
		}
	}
	// Counts are generally less balanced than median, but all particles
	// must still be assigned.
	total := 0
	for _, b := range bm.Bins() {
		total += b.Count
	}
	if total != len(pos) {
		t.Errorf("midpoint total = %d", total)
	}
}

func TestBinMapperValidation(t *testing.T) {
	if err := NewBinMapper(0, 1).Assign(nil, nil); err == nil {
		t.Error("zero ranks accepted")
	}
	if err := NewBinMapper(4, -1).Assign(nil, nil); err == nil {
		t.Error("negative threshold accepted")
	}
	if err := NewBinMapper(4, 1).Assign(make([]int, 1), make([]geom.Vec3, 2)); err == nil {
		t.Error("length mismatch accepted")
	}
}

func TestBinMapperPeakDropsWithMoreRanks(t *testing.T) {
	// Without a binding threshold, doubling ranks should roughly halve the
	// peak count — the post-dip regime of Fig 5.
	pos := randomCloud(4096, 9, geom.Box(geom.V(0, 0, 0), geom.V(8, 8, 0.1)))
	peakFor := func(r int) int {
		bm := NewBinMapper(r, 0)
		dst := make([]int, len(pos))
		if err := bm.Assign(dst, pos); err != nil {
			t.Fatal(err)
		}
		counts := make([]int, r)
		for _, x := range dst {
			counts[x]++
		}
		maxC := 0
		for _, c := range counts {
			if c > maxC {
				maxC = c
			}
		}
		return maxC
	}
	p8, p16 := peakFor(8), peakFor(16)
	ratio := float64(p8) / float64(p16)
	if math.Abs(ratio-2) > 0.6 {
		t.Errorf("peak ratio 8→16 ranks = %v, want ≈2", ratio)
	}
}

// TestBinPresortOrders checks the presort every cut reads: each axis
// order is the particle ids stably sorted by coordinate, with −0 and +0
// equal, over duplicated, negative and signed-zero coordinates and over
// full-precision values that need every radix digit. The mapper is reused,
// so the scratch also grows and shrinks between frames.
func TestBinPresortOrders(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	special := []float64{math.Copysign(0, -1), 0, -1.5, 2, -2, 1e-300, -3e10, math.SmallestNonzeroFloat64, math.MaxFloat64, -math.MaxFloat64}
	coordinate := func() float64 {
		switch rng.Intn(3) {
		case 0:
			return special[rng.Intn(len(special))]
		case 1:
			return float64(rng.Intn(7)-3) / 4 // coarse: many duplicates
		}
		return rng.NormFloat64()
	}
	bm := NewBinMapper(1, 0)
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(3000)
		pos := make([]geom.Vec3, n)
		for i := range pos {
			pos[i] = geom.V(coordinate(), coordinate(), coordinate())
		}
		bm.presort(pos)
		for axis := 0; axis < 3; axis++ {
			want := make([]int32, n)
			for i := range want {
				want[i] = int32(i)
			}
			slices.SortStableFunc(want, func(a, b int32) int { return cmp.Compare(pos[a].Axis(axis), pos[b].Axis(axis)) })
			if !slices.Equal(bm.ord[axis], want) {
				t.Fatalf("trial %d (n=%d): axis %d order differs from a stable sort by coordinate", trial, n, axis)
			}
		}
	}
}

// TestBinAssignMatchesOracle checks Assign against the index-chasing
// oracle: same ranks and bit-identical bins, for median and midpoint cuts,
// Relaxed, duplicated coordinates and more bins than ranks. Particles on
// two adjacent floats put the midpoint on the low one, so the midpoint
// cut degenerates and falls back to the median. The mapper is reused
// across frames, as the generator reuses it.
func TestBinAssignMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for _, ranks := range []int{7, 64, 1024, 1044, 8352} {
		for _, policy := range []SplitPolicy{SplitMedian, SplitMidpoint} {
			for _, relaxed := range []bool{false, true} {
				for _, threshold := range []float64{0, 0.03} {
					bm := NewBinMapper(ranks, threshold)
					bm.Policy, bm.Relaxed = policy, relaxed
					for frame := 0; frame < 4; frame++ {
						n := 1 + rng.Intn(2000)
						pos := randomCloud(n, rng.Int63(), geom.Box(geom.V(-0.5, 0, 0), geom.V(0.5, 0.7, 0.02)))
						for i := range pos {
							switch frame {
							case 1: // coarse quantisation: many coincident particles
								pos[i] = geom.V(float64(rng.Intn(6))/8, float64(rng.Intn(3))/8, 0)
							case 2: // a dense clump plus one far outlier
								pos[i] = pos[i].Scale(1e-3)
							case 3: // two adjacent floats: a degenerate midpoint
								pos[i] = geom.V(1, 0, 0)
								if rng.Intn(2) == 0 {
									pos[i].X = math.Nextafter(1, 2)
								}
							}
						}
						if frame == 2 {
							pos[0] = geom.V(40, 0, 0)
						}
						dst := make([]int, n)
						if err := bm.Assign(dst, pos); err != nil {
							t.Fatal(err)
						}
						want, wantBins, _ := oracleAssign(bm, pos)
						name := fmt.Sprintf("R=%d %v relaxed=%v threshold=%g frame %d (n=%d)", ranks, policy, relaxed, threshold, frame, n)
						for i := range want {
							if dst[i] != want[i] {
								t.Fatalf("%s: particle %d on rank %d, oracle %d", name, i, dst[i], want[i])
							}
						}
						if !sameBins(bm.Bins(), wantBins) {
							t.Fatalf("%s: bins differ from the oracle's", name)
						}
					}
				}
			}
		}
	}
}

// sameBins reports whether two bin lists are equal, comparing box
// coordinates bit for bit.
func sameBins(a, b []Bin) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Count != b[i].Count || a[i].Rank != b[i].Rank {
			return false
		}
		for axis := 0; axis < 3; axis++ {
			if math.Float64bits(a[i].Box.Lo.Axis(axis)) != math.Float64bits(b[i].Box.Lo.Axis(axis)) ||
				math.Float64bits(a[i].Box.Hi.Axis(axis)) != math.Float64bits(b[i].Box.Hi.Axis(axis)) {
				return false
			}
		}
	}
	return true
}

// TestBinAssignAllocs pins a warm Assign on a reused mapper to zero
// allocations: the presort scratch, the breadth-first queue and the bin
// lists all live on the mapper, so a frame leaves no garbage behind.
func TestBinAssignAllocs(t *testing.T) {
	pos := randomCloud(30000, 41, geom.Box(geom.V(0, 0, 0), geom.V(1, 1, 0.01)))
	dst := make([]int, len(pos))
	for _, ranks := range []int{1044, 8352} {
		for _, policy := range []SplitPolicy{SplitMedian, SplitMidpoint} {
			bm := NewBinMapper(ranks, 0)
			bm.Policy = policy
			if err := bm.Assign(dst, pos); err != nil {
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(3, func() {
				if err := bm.Assign(dst, pos); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("R=%d %v: a warm Assign allocates %v times, want 0", ranks, policy, allocs)
			}
		}
	}
}

// FuzzBinAssign checks Assign against oracleAssign on fuzzed finite
// clouds: the rank count, threshold, median or midpoint cut, Relaxed and
// an optional far outlier come from the arguments, and data holds up to
// three frames, each a particle count byte (1–64 particles) and one byte
// per coordinate. Coordinates are coarse (64 levels in [−8, 8)), so many
// coincide, and a quarter of the byte values decode to −0 and another
// quarter to +0. One mapper serves every frame, as the generator reuses
// it. Ranks must match the oracle's, and bins must match bit for bit
// except for the sign of a zero bound where both zeros occur among the
// bin's extreme coordinates. Frames stay small so each run is short
// enough for the fuzzer to minimise the inputs it keeps.
func FuzzBinAssign(f *testing.F) {
	f.Fuzz(func(t *testing.T, ranks uint16, threshold, flags uint8, data []byte) {
		bm := NewBinMapper(1+int(ranks)%2048, float64(threshold)/16)
		bm.Policy = SplitPolicy(flags & 1)
		bm.Relaxed = flags&2 != 0
		coordinate := func() float64 {
			var b byte
			if len(data) > 0 {
				b, data = data[0], data[1:]
			}
			switch b & 3 {
			case 0:
				return math.Copysign(0, -1)
			case 1:
				return 0
			}
			return float64(int8(b)>>2) / 4
		}
		for frame := 0; frame < 3 && len(data) > 0; frame++ {
			n := 1 + int(data[0])%64
			data = data[1:]
			pos := make([]geom.Vec3, n)
			for i := range pos {
				pos[i] = geom.V(coordinate(), coordinate(), coordinate())
			}
			if flags&4 != 0 {
				pos[n/2] = geom.V(1e6, -1e6, 0.5)
			}
			dst := make([]int, n)
			if err := bm.Assign(dst, pos); err != nil {
				t.Fatal(err)
			}
			want, wantBins, members := oracleAssign(bm, pos)
			if !slices.Equal(dst, want) {
				t.Fatalf("frame %d (n=%d): ranks %v, oracle %v", frame, n, dst, want)
			}
			if err := matchOracleBins(bm.Bins(), wantBins, members, pos); err != nil {
				t.Fatalf("frame %d (n=%d): %v", frame, n, err)
			}
		}
	})
}

// matchOracleBins compares bins with the oracle's bit for bit, except that
// a zero bound may differ in sign where the bin's particles hold both −0
// and +0 on that axis: both are then its extreme coordinates, and the cut
// does not say which particle supplies the bound.
func matchOracleBins(got, want []Bin, members [][]int, pos []geom.Vec3) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d bins, oracle %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Count != want[i].Count || got[i].Rank != want[i].Rank {
			return fmt.Errorf("bin %d: count %d rank %d, oracle %d %d", i, got[i].Count, got[i].Rank, want[i].Count, want[i].Rank)
		}
		for axis := 0; axis < 3; axis++ {
			for _, b := range [][2]float64{
				{got[i].Box.Lo.Axis(axis), want[i].Box.Lo.Axis(axis)},
				{got[i].Box.Hi.Axis(axis), want[i].Box.Hi.Axis(axis)},
			} {
				if math.Float64bits(b[0]) == math.Float64bits(b[1]) {
					continue
				}
				if b[0] != 0 || b[1] != 0 || !bothZeros(members[i], pos, axis) {
					return fmt.Errorf("bin %d: box %v, oracle %v", i, got[i].Box, want[i].Box)
				}
			}
		}
	}
	return nil
}

// bothZeros reports whether the particles ids hold both −0 and +0 along
// axis.
func bothZeros(ids []int, pos []geom.Vec3, axis int) bool {
	var neg, plus bool
	for _, i := range ids {
		if x := pos[i].Axis(axis); x == 0 {
			neg = neg || math.Signbit(x)
			plus = plus || !math.Signbit(x)
		}
	}
	return neg && plus
}

func TestBinMapperMetadata(t *testing.T) {
	bm := NewBinMapper(7, 0.5)
	if bm.Ranks() != 7 {
		t.Errorf("Ranks = %d, want 7", bm.Ranks())
	}
	if SplitMedian.String() != "median" || SplitMidpoint.String() != "midpoint" {
		t.Errorf("policy strings: %q, %q", SplitMedian, SplitMidpoint)
	}
	if s := SplitPolicy(9).String(); s != "SplitPolicy(9)" {
		t.Errorf("unknown policy string %q", s)
	}
}

package core

import (
	"math/rand"
	"reflect"
	"testing"

	"picpredict/internal/geom"
	"picpredict/internal/mapping"
	"picpredict/internal/mesh"
)

// clusteredFrames builds a multi-frame drifting particle cloud that exercises
// rank migration (comm) and filter overlap (ghosts).
func clusteredFrames(frames, np int, seed int64) ([]int, []geom.Vec3) {
	rng := rand.New(rand.NewSource(seed))
	base := make([]geom.Vec3, np)
	for i := range base {
		base[i] = geom.V(rng.Float64(), rng.Float64(), 0)
	}
	iters := make([]int, frames)
	pos := make([]geom.Vec3, 0, frames*np)
	for f := 0; f < frames; f++ {
		iters[f] = f * 100
		for i := range base {
			drift := 0.02 * float64(f)
			p := geom.V(base[i].X+drift*rng.Float64(), base[i].Y, 0)
			if p.X > 1 {
				p.X = 2 - p.X // reflect at the wall, as the application does
			}
			pos = append(pos, p)
		}
	}
	return iters, pos
}

func requireEqualWorkloads(t *testing.T, serial, parallel *Workload) {
	t.Helper()
	if serial.RealComp.Frames() != parallel.RealComp.Frames() {
		t.Fatalf("frame counts differ: %d vs %d", serial.RealComp.Frames(), parallel.RealComp.Frames())
	}
	for k := 0; k < serial.RealComp.Frames(); k++ {
		if !reflect.DeepEqual(serial.RealComp.Frame(k), parallel.RealComp.Frame(k)) {
			t.Errorf("RealComp frame %d differs", k)
		}
		if !reflect.DeepEqual(serial.RealComm.At(k).Entries(), parallel.RealComm.At(k).Entries()) {
			t.Errorf("RealComm frame %d differs", k)
		}
		if (serial.GhostComp == nil) != (parallel.GhostComp == nil) {
			t.Fatal("ghost matrices present in one workload only")
		}
		if serial.GhostComp != nil {
			if !reflect.DeepEqual(serial.GhostComp.Frame(k), parallel.GhostComp.Frame(k)) {
				t.Errorf("GhostComp frame %d differs", k)
			}
			if !reflect.DeepEqual(serial.GhostComm.At(k).Entries(), parallel.GhostComm.At(k).Entries()) {
				t.Errorf("GhostComm frame %d differs", k)
			}
		}
	}
}

// TestGeneratorParallelMatchesSerial is the correctness contract of the
// worker-pool fill: integer partial sums reduce to exactly the serial
// workload, for every mapper and worker count.
func TestGeneratorParallelMatchesSerial(t *testing.T) {
	iters, pos := clusteredFrames(4, 600, 11)

	m, err := mesh.New(geom.Box(geom.V(0, 0, 0), geom.V(1, 1, 1)), 8, 8, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	d, err := mesh.Decompose(m, 8)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name   string
		mapper func() mapping.Mapper
		filter float64
	}{
		{"bin-no-ghosts", func() mapping.Mapper { return mapping.NewBinMapper(16, 0.05) }, 0},
		{"bin-ghosts", func() mapping.Mapper { return mapping.NewBinMapper(16, 0.05) }, 0.04},
		{"element-ghosts", func() mapping.Mapper { return mapping.NewElementMapper(m, d) }, 0.06},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			serial, err := RunFrames(Config{Mapper: tc.mapper(), FilterRadius: tc.filter}, iters, pos, 600)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{2, 3, 8} {
				par, err := RunFrames(Config{
					Mapper:       tc.mapper(),
					FilterRadius: tc.filter,
					Workers:      workers,
				}, iters, pos, 600)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				requireEqualWorkloads(t, serial, par)
			}
		})
	}
}

// TestGeneratorParallelSmallFrame: frames below the fan-out threshold take
// the serial path without changing the result.
func TestGeneratorParallelSmallFrame(t *testing.T) {
	iters, pos := clusteredFrames(3, 16, 9)
	want, err := RunFrames(Config{Mapper: mapping.NewBinMapper(4, 0.1), FilterRadius: 0.05}, iters, pos, 16)
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunFrames(Config{Mapper: mapping.NewBinMapper(4, 0.1), FilterRadius: 0.05, Workers: 8}, iters, pos, 16)
	if err != nil {
		t.Fatal(err)
	}
	requireEqualWorkloads(t, want, got)
}

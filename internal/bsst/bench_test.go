package bsst

import (
	"math"
	"sync"
	"testing"

	"picpredict/internal/core"
	"picpredict/internal/geom"
	"picpredict/internal/kernels"
	"picpredict/internal/mapping"
	"picpredict/internal/mesh"
	"picpredict/internal/obs"
)

func benchPlatform(b *testing.B) *Platform {
	b.Helper()
	ms, err := kernels.Train(kernels.NewSynthetic(0.02, 99), kernels.TrainOptions{Seed: 1, Fast: true})
	if err != nil {
		b.Fatal(err)
	}
	return &Platform{Models: ms, Machine: Quartz(), N: 5, Filter: 2, TotalElements: 4096}
}

// Ablation: the discrete-event oracle vs the closed-form BSP recurrence on
// identical workloads.
func BenchmarkSimulateEventEngine(b *testing.B) {
	p := benchPlatform(b)
	wl := clusterWorkload(b, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := oracleSimulateEvent(p, wl); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulateBSP replays the small cluster fixture at R = 256 and,
// at paper scale, a lattice-packed bed of N_p = 599,257 particles
// dispersing over four frames on R = 8352 ranks (§V's largest
// configuration), mapped by bin and by element with ghosts at filter
// 0.004. Paper-scale workloads are built once, outside the timer. Each
// paper_* case also times the oracle (the loop without the IterTime memo
// and with sorted comm folds) on the same workload, and reports one
// replay's rank-intervals and IterTime evaluations; their ratio is the
// share the memo reuses.
//
//	go test -run '^$' -bench SimulateBSP -benchmem ./internal/bsst/
func BenchmarkSimulateBSP(b *testing.B) {
	b.Run("cluster256", func(b *testing.B) {
		benchReplay(b, benchPlatform(b), clusterWorkload(b, 256), false)
	})
	for _, m := range []string{"bin", "element"} {
		for _, oracle := range []bool{false, true} {
			name := "paper_" + m
			if oracle {
				name += "_oracle"
			}
			b.Run(name, func(b *testing.B) {
				p := benchPlatform(b)
				p.TotalElements = paperMeshSide * paperMeshSide
				benchReplay(b, p, paperWorkload(b, m), oracle)
			})
		}
	}
}

// benchReplay times SimulateBSP (or, with oracle set, oracleSimulateBSP)
// on wl after one untimed SimulateBSP replay that counts its rank-intervals
// and IterTime evaluations.
func benchReplay(b *testing.B, p *Platform, wl *core.Workload, oracle bool) {
	b.Helper()
	probe := *p
	probe.Obs = obs.New()
	if _, err := probe.SimulateBSP(wl); err != nil {
		b.Fatal(err)
	}
	counts := probe.Obs.Snapshot().Counters
	simulate := p.SimulateBSP
	if oracle {
		simulate = func(wl *core.Workload) (*Prediction, error) { return oracleSimulateBSP(p, wl) }
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := simulate(wl); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(counts[obs.BsstRankIntervals]), "rank_intervals")
	b.ReportMetric(float64(counts[obs.BsstIterEvals]), "iter_evals")
}

func BenchmarkIterTime(b *testing.B) {
	p := benchPlatform(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = p.IterTime(int64(i%5000), int64(i%500), 256)
	}
}

// The paper-scale configuration: N_p, R, the projection filter and the
// 465² element mesh of the Hele-Shaw case (§IV-B).
const (
	paperNp       = 599257
	paperRanks    = 8352
	paperFilter   = 0.004
	paperMeshSide = 465
	paperFrames   = 4
)

var (
	paperOnce      sync.Once
	paperWorkloads map[string]*core.Workload
	paperErr       error
)

// paperWorkload returns the paper-scale workload of one mapping ("bin" or
// "element"), building both mappings' workloads on first use.
func paperWorkload(b *testing.B, name string) *core.Workload {
	b.Helper()
	paperOnce.Do(func() { paperWorkloads, paperErr = buildPaperWorkloads() })
	if paperErr != nil {
		b.Fatal(paperErr)
	}
	return paperWorkloads[name]
}

func buildPaperWorkloads() (map[string]*core.Workload, error) {
	m, err := mesh.New(geom.Box(geom.V(0, 0, 0), geom.V(1, 1, 1)), paperMeshSide, paperMeshSide, 1, 2)
	if err != nil {
		return nil, err
	}
	d, err := mesh.Decompose(m, paperRanks)
	if err != nil {
		return nil, err
	}
	iters, pos := paperBed()
	out := make(map[string]*core.Workload, 2)
	for name, mapper := range map[string]mapping.Mapper{
		"bin":     mapping.NewBinMapper(paperRanks, paperFilter),
		"element": mapping.NewElementMapper(m, d),
	} {
		wl, err := core.RunFrames(core.Config{Mapper: mapper, FilterRadius: paperFilter}, iters, pos, paperNp)
		if err != nil {
			return nil, err
		}
		out[name] = wl
	}
	return out, nil
}

// paperBed lattice-packs paperNp particles into a square bed a quarter of
// the domain wide and widens it about the centre by 40% a frame: the
// clustered, dispersing shape of the paper's Hele-Shaw trace.
func paperBed() (iters []int, pos []geom.Vec3) {
	side := int(math.Ceil(math.Sqrt(paperNp)))
	pos = make([]geom.Vec3, 0, paperFrames*paperNp)
	for f := 0; f < paperFrames; f++ {
		iters = append(iters, 100*f)
		width := 0.25 * (1 + 0.4*float64(f))
		for i := 0; i < paperNp; i++ {
			u := (float64(i%side)+0.5)/float64(side) - 0.5
			v := (float64(i/side)+0.5)/float64(side) - 0.5
			pos = append(pos, geom.V(0.5+width*u, 0.5+width*v, 0))
		}
	}
	return iters, pos
}

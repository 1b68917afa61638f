package core

import (
	"testing"

	"picpredict/internal/geom"
	"picpredict/internal/mapping"
	"picpredict/internal/sparse"
)

// flatFill is the reference matrix fill: one pass over the particles in
// index order, one GhostRanks query per particle. The generator's tiled and
// index-order bodies must reproduce it bit-for-bit. prev is nil on the
// first frame (no comm); ghosts is nil when ghost matrices are off.
func flatFill(ghosts mapping.GhostSource, radius float64, cur, prev []int, pos []geom.Vec3,
	comp []int64, comm *sparse.Acc, gcomp []int64, gcomm *sparse.Acc) error {
	for _, r := range cur {
		comp[r]++
	}
	if prev != nil {
		for i, r := range cur {
			if p := prev[i]; p != r {
				if err := comm.Add(p, r, 1); err != nil {
					return err
				}
			}
		}
	}
	if ghosts == nil {
		return nil
	}
	var buf []int
	for i, p := range pos {
		home := cur[i]
		buf = ghosts.GhostRanks(buf[:0], p, radius, home)
		for _, r := range buf {
			gcomp[r]++
			if err := gcomm.Add(home, r, 1); err != nil {
				return err
			}
		}
	}
	return nil
}

// oracleWorkload builds the workload of frames (iters[k] paired with
// pos[k*np:(k+1)*np]) with flatFill: the reference the generator's fill
// paths are checked against. Ghost matrices are produced exactly when the
// mapper answers ghost queries and radius is positive.
func oracleWorkload(t testing.TB, mapper mapping.Mapper, radius float64, iters []int, pos []geom.Vec3, np int) *Workload {
	t.Helper()
	r := mapper.Ranks()
	wl := &Workload{Ranks: r, NumParticles: np, RealComp: NewCompMatrix(r), RealComm: sparse.NewSeries(r)}
	ghosts, _ := mapper.(mapping.GhostSource)
	if radius <= 0 {
		ghosts = nil
	}
	if ghosts != nil {
		wl.GhostComp = NewCompMatrix(r)
		wl.GhostComm = sparse.NewSeries(r)
	}
	var prev []int
	for k, it := range iters {
		frame := pos[k*np : (k+1)*np]
		cur := make([]int, np)
		if err := mapper.Assign(cur, frame); err != nil {
			t.Fatal(err)
		}
		var gcomp []int64
		comm, gcomm := sparse.NewAcc(r), sparse.NewAcc(r)
		if ghosts != nil {
			gcomp = wl.GhostComp.AppendFrame(it)
		}
		if err := flatFill(ghosts, radius, cur, prev, frame, wl.RealComp.AppendFrame(it), comm, gcomp, gcomm); err != nil {
			t.Fatal(err)
		}
		wl.RealComm.Append(comm.Seal())
		if ghosts != nil {
			wl.GhostComm.Append(gcomm.Seal())
		}
		prev = cur
	}
	return wl
}

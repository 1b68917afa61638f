package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"

	"picpredict"
	"picpredict/internal/obs"
)

// The synthesized traces live in the Hele-Shaw cell of the paper's case
// study: its domain, element grid and filter radius.
var (
	cellDomain   = [2][3]float64{{0, 0, 0}, {1, 1, 0.002}}
	cellElements = [3]int{128, 128, 1}
)

const (
	cellGridN        = 4
	cellFilterRadius = 0.00428
	cellTotalElems   = 128 * 128
	// cellFilterElems is the filter radius in element widths (1/128).
	cellFilterElems = cellFilterRadius * 128
	sampleEvery     = 100
)

// bedShape sizes one synthesized dispersing-bed trace.
type bedShape struct {
	Particles int `json:"particles"`
	Frames    int `json:"frames"`
	// Hold is how many leading frames the bed stays packed before it
	// expands and drifts.
	Hold int `json:"hold_frames"`
}

// synthBed builds the seeded trace of a dispersing particle bed: a dense
// disc at the cell centre that holds still for shape.Hold frames, then
// expands radially, each particle at its own speed, while the cloud drifts
// downstream — the shape of the paper's Figs 5 and 6, where the mapping's
// load balance changes as the bed breaks up. The bed is packed on a
// jittered lattice, as the Hele-Shaw scenario packs it, and the speeds are
// stratified over their range: the seed moves every particle, but the
// density the mappings see, and with it the work a trace costs, stays
// nearly the same from seed to seed.
func synthBed(seed int64, shape bedShape) (*picpredict.Trace, error) {
	rng := rand.New(rand.NewSource(seed))
	const (
		radius = 0.056 // the Hele-Shaw bed radius
		grow   = 0.35  // radial growth per frame, in bed radii
		drift  = 0.01  // downstream drift per frame
	)
	n := shape.Particles
	// Lattice sites in the disc: shrink the spacing until there are
	// enough, then keep a random n of them.
	spacing := radius * math.Sqrt(math.Pi/float64(n))
	var sites [][2]float64
	for {
		sites = sites[:0]
		k := int(radius/spacing) + 1
		for iy := -k; iy <= k; iy++ {
			for ix := -k; ix <= k; ix++ {
				x, y := float64(ix)*spacing, float64(iy)*spacing
				if x*x+y*y <= radius*radius {
					sites = append(sites, [2]float64{x, y})
				}
			}
		}
		if len(sites) >= n {
			break
		}
		spacing *= 0.99
	}
	rng.Shuffle(len(sites), func(i, j int) { sites[i], sites[j] = sites[j], sites[i] })
	speedRank := rng.Perm(n)
	type particle struct{ dx, dy, z, speed float64 }
	ps := make([]particle, n)
	for i := range ps {
		ps[i] = particle{
			dx:    sites[i][0] + (rng.Float64()-0.5)*0.5*spacing,
			dy:    sites[i][1] + (rng.Float64()-0.5)*0.5*spacing,
			z:     cellDomain[1][2] * rng.Float64(),
			speed: 0.5 + (float64(speedRank[i])+rng.Float64())/float64(n),
		}
	}
	its := make([]int, shape.Frames)
	pos := make([][3]float64, 0, n*shape.Frames)
	for k := range its {
		its[k] = k * sampleEvery
		t := float64(max(0, k-shape.Hold+1))
		for _, p := range ps {
			s := 1 + grow*t*p.speed
			x := 0.5 + p.dx*s + drift*t
			y := 0.5 + p.dy*s
			pos = append(pos, [3]float64{clamp01(x), clamp01(y), p.z})
		}
	}
	return picpredict.NewTraceFromFrames(cellDomain, n, sampleEvery, its, pos)
}

func clamp01(v float64) float64 { return math.Min(1, math.Max(0, v)) }

// writeTrace stores tr as a trace artefact at path.
func writeTrace(path string, tr *picpredict.Trace) error {
	return writeFile(path, tr.Write)
}

// writeWorkload stores wl as a workload artefact at path.
func writeWorkload(path string, wl *picpredict.Workload) error {
	return writeFile(path, wl.Write)
}

func writeFile(path string, write func(w io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if err := write(bw); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}

// readTrace loads a trace artefact and attaches the cell's element grid,
// as picserve and predict do with -elements.
func readTrace(path string) (*picpredict.Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	tr, err := picpredict.ReadTrace(bufio.NewReader(f))
	if err != nil {
		return nil, err
	}
	return tr.WithMesh(cellElements[0], cellElements[1], cellElements[2], cellGridN), nil
}

// readWorkload loads a workload artefact.
func readWorkload(path string) (*picpredict.Workload, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return picpredict.ReadWorkload(bufio.NewReader(f))
}

// artefactCRC is the content checksum picserve keys its model registry by.
func artefactCRC(path string) (string, error) {
	a, err := obs.FileArtefact(path)
	if err != nil {
		return "", err
	}
	return a.CRC32C, nil
}

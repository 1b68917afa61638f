package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"

	"picpredict"
)

// goldenModelOpts trains the models the committed fixture was made with.
// Each workload trains one model set with them anyway — sweep-bed's and
// fused-heleshaw's first set-up, serve-mix's reference models, which its
// server trains too — and hands it to the fixture check.
var goldenModelOpts = picpredict.TrainOptions{Seed: 1, Fast: true}

// goldenExpect mirrors testdata/golden/expect.json.
type goldenExpect struct {
	Frames     int               `json:"frames"`
	TraceCRC   string            `json:"trace_crc32c"`
	Ranks      []int             `json:"ranks"`
	TotalsBits map[string]string `json:"totals_bits"`
}

// checkGolden reproduces the committed golden fixture bit for bit: it
// re-runs the fixture's frozen scenario, requires the trace bytes to equal
// testdata/golden/trace.bin, then prices the fixture's rank counts with
// models (trained with goldenModelOpts) and requires every total's bits to
// equal expect.json. A mismatch is returned as errMismatch.
func checkGolden(root string, models picpredict.Models) error {
	dir := filepath.Join(root, "testdata", "golden")
	raw, err := os.ReadFile(filepath.Join(dir, "expect.json"))
	if err != nil {
		return fmt.Errorf("golden fixture: %w", err)
	}
	var want goldenExpect
	if err := json.Unmarshal(raw, &want); err != nil {
		return fmt.Errorf("golden fixture: %w", err)
	}
	committed, err := os.ReadFile(filepath.Join(dir, "trace.bin"))
	if err != nil {
		return fmt.Errorf("golden fixture: %w", err)
	}
	crc, err := artefactCRC(filepath.Join(dir, "trace.bin"))
	if err != nil {
		return fmt.Errorf("golden fixture: %w", err)
	}

	sc := picpredict.HeleShaw().WithParticles(200).WithSteps(40).WithSampleEvery(10)
	var buf bytes.Buffer
	if err := sc.WriteTrace(&buf); err != nil {
		return fmt.Errorf("golden fixture: %w", err)
	}
	if crc != want.TraceCRC || !bytes.Equal(buf.Bytes(), committed) {
		return fmt.Errorf("%w: golden trace differs from testdata/golden/trace.bin", errMismatch)
	}
	tr, err := picpredict.ReadTrace(&buf)
	if err != nil {
		return fmt.Errorf("golden fixture: %w", err)
	}
	if tr.Frames() != want.Frames {
		return fmt.Errorf("%w: golden trace has %d frames, fixture %d", errMismatch, tr.Frames(), want.Frames)
	}

	q := picpredict.QuartzMachine()
	platform, err := picpredict.NewPlatform(models, picpredict.PlatformOptions{
		TotalElements: 16384, N: 4, Filter: 1, Machine: &q,
	})
	if err != nil {
		return fmt.Errorf("golden fixture: %w", err)
	}
	for _, ranks := range want.Ranks {
		wl, err := tr.GenerateWorkload(picpredict.WorkloadOptions{
			Ranks: ranks, Mapping: picpredict.MappingBin, FilterRadius: sc.FilterRadius(),
		})
		if err != nil {
			return fmt.Errorf("golden fixture: %w", err)
		}
		pred, err := platform.SimulateBSP(wl)
		if err != nil {
			return fmt.Errorf("golden fixture: %w", err)
		}
		got := fmt.Sprintf("0x%016x", math.Float64bits(pred.Total))
		if exp := want.TotalsBits[strconv.Itoa(ranks)]; got != exp {
			return fmt.Errorf("%w: golden R=%d total %s, fixture %s", errMismatch, ranks, got, exp)
		}
	}
	return nil
}

package sweep

import (
	"errors"
	"testing"

	"picpredict/internal/core"
)

// FuzzSweepSpec drives the grid-spec parser with arbitrary input: every
// outcome must be either a valid bounded expansion or an error wrapping
// ErrSpec — never a panic, and never an expansion past the documented caps
// (the parser must not be a memory-amplification vector for a hostile
// /v1/optimize body).
func FuzzSweepSpec(f *testing.F) {
	for _, seed := range []string{
		"8",
		"8,64,512-8352:x2",
		"1044-8352:x2",
		"100-400:+100",
		"512-8352",
		"2-20:x3",
		"8,8,8",
		"",
		"16-8",
		"8-64:y2",
		"0,-1",
		"1-100000000:+1",
		"8:x2",
		"99999999999999999999",
		" 8 , 64-128 : +32 ",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		ranks, err := ParseRanks(spec)
		if err != nil {
			if !errors.Is(err, ErrSpec) {
				t.Fatalf("ParseRanks(%q): error %v does not wrap ErrSpec", spec, err)
			}
			if ranks != nil {
				t.Fatalf("ParseRanks(%q): non-nil result alongside error %v", spec, err)
			}
			return
		}
		if len(ranks) == 0 {
			t.Fatalf("ParseRanks(%q): empty result without error", spec)
		}
		if len(ranks) > maxSpecRanks {
			t.Fatalf("ParseRanks(%q): %d rank counts exceed the %d cap", spec, len(ranks), maxSpecRanks)
		}
		seen := make(map[int]bool, len(ranks))
		for _, r := range ranks {
			if r <= 0 || r > core.MaxRanks {
				t.Fatalf("ParseRanks(%q): out-of-bounds rank count %d", spec, r)
			}
			if seen[r] {
				t.Fatalf("ParseRanks(%q): duplicate rank count %d", spec, r)
			}
			seen[r] = true
		}
	})
}

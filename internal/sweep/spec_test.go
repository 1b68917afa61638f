package sweep

import (
	"errors"
	"reflect"
	"strings"
	"testing"
)

func TestParseRanks(t *testing.T) {
	cases := []struct {
		spec string
		want []int
	}{
		{"8", []int{8}},
		{"8,64,512", []int{8, 64, 512}},
		{" 8 , 64 ", []int{8, 64}},
		{"512-8352", []int{512, 1024, 2048, 4096, 8192}},
		{"512-8352:x2", []int{512, 1024, 2048, 4096, 8192}},
		{"1044-8352:x2", []int{1044, 2088, 4176, 8352}}, // the paper's §IV axis
		{"100-400:+100", []int{100, 200, 300, 400}},
		{"4-4", []int{4}},
		{"2-20:x3", []int{2, 6, 18}},
		{"8,8,8", []int{8}},                 // dedup
		{"64,8,8-32", []int{64, 8, 16, 32}}, // spec order kept, dups dropped
	}
	for _, c := range cases {
		got, err := ParseRanks(c.spec)
		if err != nil {
			t.Errorf("ParseRanks(%q): unexpected error %v", c.spec, err)
			continue
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("ParseRanks(%q) = %v, want %v", c.spec, got, c.want)
		}
	}
}

func TestParseRanksErrors(t *testing.T) {
	cases := []struct {
		spec    string
		wantMsg string
	}{
		{"", "empty rank spec"},
		{"   ", "empty rank spec"},
		{"8,,16", "empty item"},
		{"abc", `"abc" is not an integer`},
		{"0", "not positive"},
		{"-4", `"" is not an integer`}, // parsed as range with empty LO
		{"8:x2", "step \"x2\" on single value"},
		{"16-8", "range 16-8 is descending"},
		{"8-64:y2", `step "y2" (want xK or +K)`},
		{"8-64:x", `step "x" (want xK or +K)`},
		{"8-64:x1", "needs an integer factor ≥ 2"},
		{"8-64:+0", "needs a positive integer"},
		{"8-64:+", `step "+" (want xK or +K)`},
		{"1-100000000:+1", "exceeds the 4194304 limit"},
		{"1-1000000:+1", "more than 4096 rank counts"},
		{"99999999999", "exceeds the 4194304 limit"},
		{"90000000", "exceeds the 4194304 limit"},
		{"8-64:x99999999", "exceeds the 4194304 limit"},
		{strings.Repeat("8,", 3000), "longer than 4096 bytes"},
	}
	for _, c := range cases {
		got, err := ParseRanks(c.spec)
		if err == nil {
			t.Errorf("ParseRanks(%q) = %v, want error containing %q", c.spec, got, c.wantMsg)
			continue
		}
		if !errors.Is(err, ErrSpec) {
			t.Errorf("ParseRanks(%q): error %v does not wrap ErrSpec", c.spec, err)
		}
		if !strings.Contains(err.Error(), c.wantMsg) {
			t.Errorf("ParseRanks(%q): error %q, want it to contain %q", c.spec, err, c.wantMsg)
		}
	}
}

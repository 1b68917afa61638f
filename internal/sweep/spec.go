// Package sweep is the capacity-planning engine: it prices a whole grid of
// (ranks, mapping, machine, model-kind) configurations against one trace,
// sharing every artefact the configurations have in common — one workload
// build per distinct (ranks, mapping) pair, one trained model set per kind —
// and returns a ranked frontier: fastest configuration, cost/performance
// knee, and per-family strong-scaling curves. It answers the question the
// paper's abstract poses ("what configuration should I run this workload
// on?") in one call instead of thousands.
package sweep

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"picpredict/internal/core"
)

// ErrSpec is the sentinel every grid-spec and grid-validation error wraps;
// callers map errors.Is(err, ErrSpec) to a 400/usage response without
// string matching.
var ErrSpec = errors.New("invalid sweep spec")

const (
	// maxSpecRanks bounds how many rank counts one spec may expand to —
	// a fuzz-resistant cap: "1-1000000:+1" must fail fast, not allocate.
	maxSpecRanks = 4096
	// maxSpecLen bounds the raw spec string before parsing.
	maxSpecLen = 4096
)

// ParseRanks expands a rank grid spec: a comma-separated list of items,
// each either a single positive integer or a range LO-HI with an optional
// step suffix — ":xK" multiplies by K (default, K=2) and ":+K" adds K.
// Examples:
//
//	"8,64,512"          → [8 64 512]
//	"512-8352"          → [512 1024 2048 4096 8192] (default :x2)
//	"1044-8352:x2"      → [1044 2088 4176 8352]     (the paper's §IV axis)
//	"100-400:+100"      → [100 200 300 400]
//
// Values are deduplicated preserving first occurrence; order is the spec's
// own. Every error wraps ErrSpec.
func ParseRanks(spec string) ([]int, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, fmt.Errorf("%w: empty rank spec", ErrSpec)
	}
	if len(spec) > maxSpecLen {
		return nil, fmt.Errorf("%w: rank spec longer than %d bytes", ErrSpec, maxSpecLen)
	}
	var out []int
	seen := make(map[int]bool)
	for _, item := range strings.Split(spec, ",") {
		vals, err := parseRankItem(strings.TrimSpace(item))
		if err != nil {
			return nil, err
		}
		for _, v := range vals {
			if seen[v] {
				continue
			}
			if len(out) >= maxSpecRanks {
				return nil, fmt.Errorf("%w: spec expands to more than %d rank counts", ErrSpec, maxSpecRanks)
			}
			seen[v] = true
			out = append(out, v)
		}
	}
	return out, nil
}

// parseRankItem expands one comma-separated item: INT or LO-HI[:xK|:+K].
func parseRankItem(item string) ([]int, error) {
	if item == "" {
		return nil, fmt.Errorf("%w: empty item", ErrSpec)
	}
	rangePart, step := item, ""
	if i := strings.IndexByte(item, ':'); i >= 0 {
		rangePart, step = item[:i], item[i+1:]
	}
	dash := strings.IndexByte(rangePart, '-')
	if dash < 0 {
		if step != "" {
			return nil, fmt.Errorf("%w: step %q on single value %q (steps apply to ranges)", ErrSpec, step, rangePart)
		}
		v, err := parseRankValue(rangePart)
		if err != nil {
			return nil, err
		}
		return []int{v}, nil
	}
	lo, err := parseRankValue(rangePart[:dash])
	if err != nil {
		return nil, err
	}
	hi, err := parseRankValue(rangePart[dash+1:])
	if err != nil {
		return nil, err
	}
	if lo > hi {
		return nil, fmt.Errorf("%w: range %d-%d is descending", ErrSpec, lo, hi)
	}
	mul, add, err := parseStep(step)
	if err != nil {
		return nil, err
	}
	var out []int
	for cur := lo; cur <= hi; {
		out = append(out, cur)
		if len(out) > maxSpecRanks {
			return nil, fmt.Errorf("%w: range %q expands to more than %d rank counts", ErrSpec, item, maxSpecRanks)
		}
		next := cur*mul + add
		if next <= cur { // overflow or zero step cannot happen post-validation, but stay safe
			break
		}
		cur = next
	}
	return out, nil
}

// parseStep decodes a range step suffix into (multiplier, addend); the empty
// suffix is the default geometric doubling.
func parseStep(step string) (mul, add int, err error) {
	if step == "" {
		return 2, 0, nil
	}
	if len(step) < 2 {
		return 0, 0, fmt.Errorf("%w: step %q (want xK or +K)", ErrSpec, step)
	}
	k, kerr := strconv.Atoi(step[1:])
	if kerr == nil && k > core.MaxRanks {
		// Bounding the step alongside the values keeps cur*mul+add far from
		// integer overflow (≤ 2^44 + 2^22 on 64-bit int).
		return 0, 0, fmt.Errorf("%w: step %q exceeds the %d limit", ErrSpec, step, core.MaxRanks)
	}
	switch step[0] {
	case 'x':
		if kerr != nil || k < 2 {
			return 0, 0, fmt.Errorf("%w: multiplicative step %q needs an integer factor ≥ 2", ErrSpec, step)
		}
		return k, 0, nil
	case '+':
		if kerr != nil || k < 1 {
			return 0, 0, fmt.Errorf("%w: additive step %q needs a positive integer", ErrSpec, step)
		}
		return 1, k, nil
	default:
		return 0, 0, fmt.Errorf("%w: step %q (want xK or +K)", ErrSpec, step)
	}
}

// parseRankValue decodes one positive bounded integer.
func parseRankValue(s string) (int, error) {
	s = strings.TrimSpace(s)
	v, err := strconv.Atoi(s)
	if err != nil {
		return 0, fmt.Errorf("%w: %q is not an integer", ErrSpec, s)
	}
	if v <= 0 {
		return 0, fmt.Errorf("%w: rank count %d is not positive", ErrSpec, v)
	}
	if v > core.MaxRanks {
		return 0, fmt.Errorf("%w: rank count %d exceeds the %d limit", ErrSpec, v, core.MaxRanks)
	}
	return v, nil
}

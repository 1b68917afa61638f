package main

import (
	"hash/fnv"
	"math"
	"net/http"
	"sort"
	"time"
)

// minBeyond is how many samples a reported tail percentile must leave above
// it, so that the tail is measured rather than read off one or two outliers.
const minBeyond = 10

// tailCandidates are the percentiles a tail metric may report, highest
// first.
var tailCandidates = []float64{99.9, 99, 95, 90}

// percentile returns the q-th percentile (0–100) of xs, interpolating
// linearly between the two nearest ranks. xs need not be sorted; it is
// left unchanged. An empty sample has no percentile and reads 0.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// median is the 50th percentile.
func median(xs []float64) float64 { return percentile(xs, 50) }

// beyond counts the samples of an n-sample set that lie strictly above the
// interpolation position of its q-th percentile.
func beyond(n int, q float64) int {
	if n == 0 {
		return 0
	}
	pos := q / 100 * float64(n-1)
	return n - 1 - int(math.Floor(pos))
}

// tailPercentile picks the highest candidate percentile that leaves at
// least minBeyond of n samples above it. With too few samples for any
// candidate it returns 100: the tail is then the slowest sample.
func tailPercentile(n int) float64 {
	for _, q := range tailCandidates {
		if beyond(n, q) >= minBeyond {
			return q
		}
	}
	return 100
}

// tail returns the tail statistic of xs and the percentile it reports.
func tail(xs []float64) (value, q float64) {
	q = tailPercentile(len(xs))
	return percentile(xs, q), q
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// secs converts a duration to fractional seconds.
func secs(d time.Duration) float64 { return d.Seconds() }

// lateness is how far behind its schedule a send went out; a send on or
// before its due time is not late.
func lateness(due, sent time.Duration) time.Duration {
	if sent <= due {
		return 0
	}
	return sent - due
}

// outcome is the verdict on one operation the benchmark attempted.
type outcome struct {
	status int   // HTTP status, or 0 for an in-process call
	err    error // transport or call error
	ok     bool  // the answer matched its reference
}

// failed reports whether the operation counts against the error rate: a
// transport or call error, any HTTP status but 200 (429 shed, 504 timeout,
// 5xx, ...), or an answer that did not match its reference.
func (o outcome) failed() bool {
	if o.err != nil {
		return true
	}
	if o.status != 0 && o.status != http.StatusOK {
		return true
	}
	return !o.ok
}

// tally counts attempted and failed operations.
type tally struct {
	attempted, failed int64
}

// add records one operation and returns whether it failed.
func (t *tally) add(o outcome) bool {
	t.attempted++
	if o.failed() {
		t.failed++
		return true
	}
	return false
}

// errorRate is failed over attempted (0 when nothing was attempted).
func (t tally) errorRate() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}

// digest folds the IEEE-754 bits of every predicted total, in the order
// given, into a 32-bit FNV-1a hash. It fits a JSON number exactly, so two
// runs agree on their outputs when their digests are equal.
func digest(totals []float64) uint32 {
	h := fnv.New32a()
	var b [8]byte
	for _, v := range totals {
		bits := math.Float64bits(v)
		for i := range b {
			b[i] = byte(bits >> (8 * i))
		}
		_, _ = h.Write(b[:]) // hash.Hash writes never fail
	}
	return h.Sum32()
}

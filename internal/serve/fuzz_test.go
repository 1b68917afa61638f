package serve

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"picpredict"
	"picpredict/internal/core"
	"picpredict/internal/rebalance"
)

// FuzzPredictRequest drives arbitrary bodies through the decode-and-validate
// step of /v1/predict that produces the workload-memo keys. Nothing may
// panic; every accepted query must have rank counts in (0, core.MaxRanks],
// a non-negative filter, a parsed mapping and a canonical rebalance spec;
// validating it again gives the same keys, and so does a request rebuilt
// from its canonical options.
func FuzzPredictRequest(f *testing.F) {
	for _, seed := range []string{
		`{"ranks":[8]}`,
		`{"ranks":[1044,8352],"mapping":"element","filter":0.004}`,
		`{"scenario":"bare","ranks":[8],"mapping":"hilbert"}`,
		`{"ranks":[8],"mapping":"element","rebalance":"none"}`,
		`{"ranks":[8],"mapping":"element","rebalance":" threshold:1.50 "}`,
		`{"ranks":[8],"mapping":"bin","rebalance":"periodic:4"}`,
		`{"ranks":[8],"filter":-1}`,
		`{"ranks":[8],"filter":-0}`,
		`{"ranks":[0,4194305]}`,
		`{"ranks":[8],"relaxed_bins":true,"midpoint_split":true,"workers":3}`,
		`{"scenario":"nope","ranks":[8]}`,
		`{"ranks":[8],"filter":1e400}`,
		`{"ranks":[8],`,
		`[]`,
	} {
		f.Add([]byte(seed))
	}
	s := New(Config{})
	f.Cleanup(s.Close)
	if err := s.AddTrace("test", testTrace(f), testCRC); err != nil {
		f.Fatal(err)
	}
	if err := s.AddTrace("bare", bareTrace(f), testCRC); err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var req PredictRequest
		r := httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(body))
		if decodeBody(httptest.NewRecorder(), r, &req) != nil || req.Workload != "" {
			return
		}
		tq, status, err := s.parseTraceQuery(&req)
		if err != nil {
			if status != http.StatusBadRequest && status != http.StatusNotFound {
				t.Fatalf("rejected with status %d: %v", status, err)
			}
			return
		}
		for _, r := range tq.ranks {
			o := tq.key(r).opts
			if r <= 0 || r > core.MaxRanks || o.Ranks != r {
				t.Fatalf("accepted rank count %d (key ranks %d)", r, o.Ranks)
			}
			if !(o.FilterRadius >= 0) {
				t.Fatalf("accepted filter %g", o.FilterRadius)
			}
			if m, err := picpredict.ParseMappingKind(string(o.Mapping)); err != nil || m != o.Mapping || m == "" {
				t.Fatalf("accepted mapping %q is not a parsed mapping kind", o.Mapping)
			}
			if o.Rebalance != "" {
				spec, err := rebalance.ParseSpec(o.Rebalance)
				if err != nil || spec.None() || spec.String() != o.Rebalance {
					t.Fatalf("accepted rebalance %q is not canonical", o.Rebalance)
				}
			}
		}
		o := tq.opts

		again, _, err := s.parseTraceQuery(&req)
		if err != nil || !reflect.DeepEqual(again, tq) {
			t.Fatalf("second validation gave %+v, %v; first %+v", again, err, tq)
		}
		canon := PredictRequest{Scenario: tq.art.name, Ranks: tq.ranks, Mapping: string(o.Mapping), Filter: o.FilterRadius,
			Rebalance: o.Rebalance, RelaxedBins: o.RelaxedBins, MidpointSplit: o.MidpointSplit}
		rebuilt, _, err := s.parseTraceQuery(&canon)
		if err != nil {
			t.Fatalf("canonical request %+v rejected: %v", canon, err)
		}
		for _, r := range tq.ranks {
			if rebuilt.key(r) != tq.key(r) {
				t.Fatalf("canonical request keys %+v, original %+v", rebuilt.key(r), tq.key(r))
			}
		}
	})
}

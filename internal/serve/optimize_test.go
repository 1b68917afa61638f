package serve

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"picpredict"
	"picpredict/internal/obs"
)

func postOptimize(t *testing.T, url string, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/v1/optimize", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/optimize: %v", err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw
}

// TestOptimizeEndpoint covers the happy path, response shape, cross-call
// determinism, and the cache-warming contract: models a sweep trains and
// workloads it builds are hits for a repeated sweep and for subsequent
// point predicts.
func TestOptimizeEndpoint(t *testing.T) {
	reg := obs.New()
	s, st := newTestServer(t, Config{Workers: 2, SweepWorkers: 4, Obs: reg}, 0)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := `{"ranks":"4-16:x2","mappings":["bin","hilbert"],"machines":["quartz","vulcan"],` +
		`"model_kinds":["synthetic","wallclock"],"filter":0.004,"model":{"fast":true,"seed":1},"top":5}`
	status, raw := postOptimize(t, ts.URL, body)
	if status != http.StatusOK {
		t.Fatalf("optimize: %d (%s)", status, raw)
	}
	var or OptimizeResponse
	if err := json.Unmarshal(raw, &or); err != nil {
		t.Fatalf("response not JSON: %v", err)
	}
	if or.Scenario != "test" {
		t.Errorf("scenario = %q, want test", or.Scenario)
	}
	if len(or.Models) != 2 || or.Models[0].Kind != "synthetic" || or.Models[1].Kind != "wallclock" {
		t.Fatalf("models = %+v, want synthetic then wallclock", or.Models)
	}
	for _, m := range or.Models {
		if m.Cache != "miss" {
			t.Errorf("cold sweep resolved %s as %q, want miss", m.Kind, m.Cache)
		}
	}
	sw := or.Sweep
	if sw == nil {
		t.Fatal("response has no sweep result")
	}
	if sw.Configs != 3*2*2*2 {
		t.Errorf("configs = %d, want 24", sw.Configs)
	}
	if sw.SharedBuilds != 3*2 {
		t.Errorf("shared builds = %d, want 6", sw.SharedBuilds)
	}
	if len(sw.Frontier) != 5 {
		t.Errorf("frontier truncated to %d points, want top=5", len(sw.Frontier))
	}
	for i := 1; i < len(sw.Frontier); i++ {
		if sw.Frontier[i].TotalSec < sw.Frontier[i-1].TotalSec {
			t.Errorf("frontier not sorted at %d", i)
		}
	}
	if sw.Fastest.TotalSec <= 0 {
		t.Errorf("fastest total %g, want positive", sw.Fastest.TotalSec)
	}

	// The same grid again must return byte-identical sweep JSON (the
	// serve-level determinism contract) and resolve every model as a hit.
	status, raw2 := postOptimize(t, ts.URL, body)
	if status != http.StatusOK {
		t.Fatalf("second optimize: %d (%s)", status, raw2)
	}
	var or2 OptimizeResponse
	if err := json.Unmarshal(raw2, &or2); err != nil {
		t.Fatal(err)
	}
	for _, m := range or2.Models {
		if m.Cache != "hit" {
			t.Errorf("warm sweep resolved %s as %q, want hit", m.Kind, m.Cache)
		}
	}
	if !reflect.DeepEqual(or.Sweep, or2.Sweep) {
		t.Error("two identical optimize calls returned different sweep results")
	}
	// Both sweeps resolved their 6 builds through the workload memo: the
	// first built each once, the second built nothing.
	if misses, hits := reg.Counter(obs.ServeWorkloadCacheMisses).Value(), reg.Counter(obs.ServeWorkloadCacheHits).Value(); misses != 6 || hits != 6 {
		t.Errorf("workload memo after two sweeps: %d misses, %d hits, want 6 and 6", misses, hits)
	}

	// Cache warming: a point predict for a swept configuration hits the
	// models the sweep left resident, with zero additional training.
	for _, kind := range []string{"synthetic", "wallclock"} {
		status, raw := postPredict(t, ts.URL,
			`{"ranks":[8],"mapping":"bin","filter":0.004,"model":{"kind":"`+kind+`","fast":true,"seed":1}}`)
		if status != http.StatusOK {
			t.Fatalf("post-sweep predict (%s): %d (%s)", kind, status, raw)
		}
		var pr PredictResponse
		if err := json.Unmarshal(raw, &pr); err != nil {
			t.Fatal(err)
		}
		if pr.Cache != "hit" || pr.Results[0].WorkloadCache != "hit" {
			t.Errorf("post-sweep predict (%s) cache = %q, workload_cache = %q, want hits (sweep must warm both memos)",
				kind, pr.Cache, pr.Results[0].WorkloadCache)
		}
		key := Fingerprint(testCRC, picpredict.ModelKind(kind), picpredict.TrainOptions{Fast: true, Seed: 1})
		if got := st.count(key); got != 1 {
			t.Errorf("kind %s trained %d times across sweep+predict, want exactly 1", kind, got)
		}
	}
}

// TestOptimizeValidation maps each bad request to its status.
func TestOptimizeValidation(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 2, Obs: obs.New()}, 0)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, tc := range []struct {
		name, body string
		want       int
	}{
		{"malformed json", `{"ranks": "8`, http.StatusBadRequest},
		{"missing ranks", `{}`, http.StatusBadRequest},
		{"bad spec", `{"ranks":"8-4"}`, http.StatusBadRequest},
		{"bad spec step", `{"ranks":"8-64:y2"}`, http.StatusBadRequest},
		{"over-wide spec", `{"ranks":"1-1000000:+1"}`, http.StatusBadRequest},
		{"bad mapping", `{"ranks":"8","mappings":["zigzag"]}`, http.StatusBadRequest},
		{"bad machine", `{"ranks":"8","machines":["cray"]}`, http.StatusBadRequest},
		{"bad kind", `{"ranks":"8","model_kinds":["psychic"]}`, http.StatusBadRequest},
		{"kind conflict", `{"ranks":"8","model_kinds":["synthetic"],"model":{"kind":"wallclock"}}`, http.StatusBadRequest},
		{"unknown scenario", `{"scenario":"nope","ranks":"8"}`, http.StatusNotFound},
		{"negative filter", `{"ranks":"8","filter":-1}`, http.StatusBadRequest},
	} {
		status, body := postOptimize(t, ts.URL, tc.body)
		if status != tc.want {
			t.Errorf("%s: status %d (%s), want %d", tc.name, status, body, tc.want)
		}
		var e errorBody
		if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
			t.Errorf("%s: error body %q is not {\"error\": ...}", tc.name, body)
		}
	}
}

// TestOptimizeCacheOnly: a hedged (cache-only) optimize against a cold
// registry declines with 409 instead of training.
func TestOptimizeCacheOnly(t *testing.T) {
	reg := obs.New()
	s, st := newTestServer(t, Config{Workers: 2, Obs: reg}, 0)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/optimize",
		strings.NewReader(`{"ranks":"8","model":{"fast":true}}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(CacheOnlyHeader, "1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint — drain for keep-alive
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("cold cache-only optimize got %d, want 409", resp.StatusCode)
	}
	if got := reg.Counter(obs.ServeColdDeclines).Value(); got != 1 {
		t.Errorf("cold-decline counter = %d, want 1", got)
	}
	key := Fingerprint(testCRC, picpredict.ModelSynthetic, picpredict.TrainOptions{Fast: true})
	if got := st.count(key); got != 0 {
		t.Errorf("cache-only optimize trained %d times, want 0", got)
	}
}

// TestOptimizeSaturation floods a 1-worker/1-queue pool with concurrent
// sweeps: the overflow must shed with 429 while at least one completes.
func TestOptimizeSaturation(t *testing.T) {
	reg := obs.New()
	s, _ := newTestServer(t, Config{Workers: 1, Queue: 1, SweepWorkers: 2, Obs: reg}, 100*time.Millisecond)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const n = 16
	statuses := make([]int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/optimize", "application/json",
				strings.NewReader(`{"ranks":"4-16:x2","model":{"fast":true}}`))
			if err != nil {
				statuses[i] = -1
				return
			}
			io.Copy(io.Discard, resp.Body) //nolint — drain for keep-alive
			resp.Body.Close()
			statuses[i] = resp.StatusCode
		}(i)
	}
	wg.Wait()

	var ok200, rej429 int
	for i, code := range statuses {
		switch code {
		case http.StatusOK:
			ok200++
		case http.StatusTooManyRequests:
			rej429++
		case -1:
			t.Fatalf("request %d: transport error", i)
		default:
			t.Errorf("request %d: unexpected status %d", i, code)
		}
	}
	if ok200 == 0 {
		t.Error("no optimize succeeded under load")
	}
	if rej429 == 0 {
		t.Error("16 concurrent sweeps against capacity 2 shed nothing — admission control is not engaging")
	}
	if got := reg.Counter(obs.ServeRejected).Value(); got != int64(rej429) {
		t.Errorf("rejected counter = %d, HTTP 429s = %d", got, rej429)
	}
}

// TestOptimizeCancellationNoLeak cancels an optimize mid-sweep (while its
// model training is still pending) and verifies the server returns to the
// baseline goroutine count — the sweep's worker pool must not outlive its
// request.
func TestOptimizeCancellationNoLeak(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 2, SweepWorkers: 4, Obs: obs.New()}, 300*time.Millisecond)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	baseline := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/optimize",
		strings.NewReader(`{"ranks":"4-64:x2","model":{"fast":true}}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	done := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body) //nolint — drain for keep-alive
			resp.Body.Close()
		}
		done <- err
	}()
	time.Sleep(50 * time.Millisecond) // let the sweep reach the training wait
	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled optimize never returned")
	}

	// Goroutine counts settle asynchronously (the HTTP client connection
	// and the aborted trainer unwind); retry briefly before judging.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if n := runtime.NumGoroutine(); n <= baseline+3 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked after cancelled optimize: baseline %d, now %d", baseline, runtime.NumGoroutine())
}

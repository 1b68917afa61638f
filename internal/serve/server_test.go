package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"picpredict"
	"picpredict/internal/core"
	"picpredict/internal/obs"
)

// sharedModels trains one fast model set for the whole test binary — real
// training takes seconds, and every prediction path only needs *a* valid
// model set, so the stub trainers below hand out this one.
var (
	modelsOnce   sync.Once
	sharedModels picpredict.Models
	modelsErr    error
)

func testModels(t *testing.T) picpredict.Models {
	t.Helper()
	modelsOnce.Do(func() {
		sharedModels, modelsErr = picpredict.TrainModels(picpredict.TrainOptions{Seed: 1, Fast: true})
	})
	if modelsErr != nil {
		t.Fatalf("training shared test models: %v", modelsErr)
	}
	return sharedModels
}

// testTrace simulates one small deterministic scenario for the binary.
var (
	traceOnce  sync.Once
	cachedTr   *picpredict.Trace
	cachedTrEr error
)

func testTrace(t testing.TB) *picpredict.Trace {
	t.Helper()
	traceOnce.Do(func() {
		sc := picpredict.HeleShaw().WithParticles(120).WithSteps(20).WithSampleEvery(5)
		cachedTr, cachedTrEr = sc.Run()
	})
	if cachedTrEr != nil {
		t.Fatalf("building test trace: %v", cachedTrEr)
	}
	return cachedTr
}

// testWorkload generates one small workload from the test trace for the
// binary — a value for memo tests to hand out.
var (
	workloadOnce sync.Once
	cachedWl     *picpredict.Workload
	cachedWlErr  error
)

func testWorkload(t *testing.T) *picpredict.Workload {
	t.Helper()
	tr := testTrace(t)
	workloadOnce.Do(func() {
		cachedWl, cachedWlErr = tr.GenerateWorkload(picpredict.WorkloadOptions{
			Ranks: 8, Mapping: picpredict.MappingBin, FilterRadius: 0.004,
		})
	})
	if cachedWlErr != nil {
		t.Fatalf("building test workload: %v", cachedWlErr)
	}
	return cachedWl
}

// stubTrainer counts training runs per model key and returns the shared
// models after an optional delay — the seam that makes the load tests fast
// and deterministic.
type stubTrainer struct {
	models picpredict.Models
	delay  time.Duration
	counts sync.Map // ModelKey → *atomic.Int64
}

func (st *stubTrainer) count(key ModelKey) int64 {
	v, ok := st.counts.Load(key)
	if !ok {
		return 0
	}
	return v.(*atomic.Int64).Load()
}

// install points s at the stub, counting by the same fingerprint the
// server computes.
func (st *stubTrainer) install(s *Server, crcOf func(kind picpredict.ModelKind, opts picpredict.TrainOptions) ModelKey) {
	s.trainer = func(ctx context.Context, kind picpredict.ModelKind, opts picpredict.TrainOptions) (picpredict.Models, error) {
		key := crcOf(kind, opts)
		v, _ := st.counts.LoadOrStore(key, new(atomic.Int64))
		v.(*atomic.Int64).Add(1)
		if st.delay > 0 {
			select {
			case <-time.After(st.delay):
			case <-ctx.Done():
				return picpredict.Models{}, ctx.Err()
			}
		}
		return st.models, nil
	}
}

const testCRC = "0xtesttrace"

// newTestServer assembles a server over the shared test trace with a stub
// trainer; cfg zero-values take the serving defaults.
func newTestServer(t *testing.T, cfg Config, delay time.Duration) (*Server, *stubTrainer) {
	t.Helper()
	if cfg.TotalElements == 0 {
		cfg.TotalElements = 16384
	}
	s := New(cfg)
	t.Cleanup(s.Close)
	if err := s.AddTrace("test", testTrace(t), testCRC); err != nil {
		t.Fatal(err)
	}
	st := &stubTrainer{models: testModels(t), delay: delay}
	st.install(s, func(kind picpredict.ModelKind, opts picpredict.TrainOptions) ModelKey {
		return Fingerprint(testCRC, kind, opts)
	})
	s.MarkReady()
	return s, st
}

func postPredict(t *testing.T, url string, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/v1/predict", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/predict: %v", err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw
}

func TestEndpoints(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 2, Obs: obs.New()}, 0)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// healthz is always 200; readyz tracks the ready flag.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", resp.StatusCode, err)
	}
	resp.Body.Close()
	resp, err = http.Get(ts.URL + "/readyz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz: %v %v", resp.StatusCode, err)
	}
	resp.Body.Close()
	s.ready.Store(false)
	resp, err = http.Get(ts.URL + "/readyz")
	if err != nil || resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz while not ready: %v %v, want 503", resp.StatusCode, err)
	}
	resp.Body.Close()
	s.ready.Store(true)

	// Input validation.
	for _, tc := range []struct {
		name, body string
		want       int
	}{
		{"malformed json", `{"ranks": [8,`, http.StatusBadRequest},
		{"no ranks", `{}`, http.StatusBadRequest},
		{"negative rank", `{"ranks":[-4]}`, http.StatusBadRequest},
		{"unknown scenario", `{"scenario":"nope","ranks":[8]}`, http.StatusNotFound},
		{"unknown mapping", `{"ranks":[8],"mapping":"zigzag"}`, http.StatusBadRequest},
		{"unknown machine", `{"ranks":[8],"machine":"cray"}`, http.StatusBadRequest},
		{"unknown model kind", `{"ranks":[8],"model":{"kind":"psychic"}}`, http.StatusBadRequest},
		{"negative filter", `{"ranks":[8],"filter":-1}`, http.StatusBadRequest},
	} {
		status, body := postPredict(t, ts.URL, tc.body)
		if status != tc.want {
			t.Errorf("%s: status %d (%s), want %d", tc.name, status, body, tc.want)
		}
		var e errorBody
		if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
			t.Errorf("%s: error body %q is not {\"error\": ...}", tc.name, body)
		}
	}

	// Happy path: cold predict is a miss, repeat is a hit, results are
	// well-formed and per-rank.
	status, raw := postPredict(t, ts.URL, `{"ranks":[8,16],"mapping":"bin","filter":0.004,"model":{"fast":true,"seed":1}}`)
	if status != http.StatusOK {
		t.Fatalf("predict: %d (%s)", status, raw)
	}
	var pr PredictResponse
	if err := json.Unmarshal(raw, &pr); err != nil {
		t.Fatalf("response not JSON: %v", err)
	}
	if pr.Cache != "miss" || pr.Scenario != "test" || len(pr.Results) != 2 {
		t.Fatalf("cold response: %+v, want miss over scenario test with 2 results", pr)
	}
	for i, res := range pr.Results {
		if res.TotalSec <= 0 || res.Ranks != []int{8, 16}[i] {
			t.Errorf("result %d: %+v — non-positive total or wrong ranks", i, res)
		}
	}
	status, raw = postPredict(t, ts.URL, `{"ranks":[8,16],"mapping":"bin","filter":0.004,"model":{"fast":true,"seed":1}}`)
	if status != http.StatusOK {
		t.Fatalf("warm predict: %d (%s)", status, raw)
	}
	if err := json.Unmarshal(raw, &pr); err != nil || pr.Cache != "hit" {
		t.Fatalf("warm predict cache = %q err=%v, want hit", pr.Cache, err)
	}

	// /v1/models reflects the one resident entry.
	resp, err = http.Get(ts.URL + "/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	var ml struct {
		Capacity int         `json:"capacity"`
		Models   []EntryInfo `json:"models"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ml); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(ml.Models) != 1 || ml.Models[0].State != "ready" || ml.Models[0].Hits != 1 {
		t.Fatalf("/v1/models = %+v, want one ready entry with 1 hit", ml)
	}
}

// TestLoadConcurrent64 is the acceptance load test: 64 concurrent requests
// against a cold registry through a 2-worker/4-queue pool. Exactly one
// training run per unique configuration, saturated requests get a clean
// 429 (never a hang or panic), and everything is race-clean under -race.
func TestLoadConcurrent64(t *testing.T) {
	reg := obs.New()
	s, st := newTestServer(t, Config{Workers: 2, Queue: 4, Obs: reg}, 100*time.Millisecond)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	bodyFor := func(seed int64) string {
		return fmt.Sprintf(`{"ranks":[8],"mapping":"bin","model":{"fast":true,"seed":%d}}`, seed)
	}
	keyFor := func(seed int64) ModelKey {
		return Fingerprint(testCRC, picpredict.ModelSynthetic, picpredict.TrainOptions{Fast: true, Seed: seed})
	}

	const n = 64
	statuses := make([]int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			seed := int64(1 + i%2) // two unique configurations interleaved
			resp, err := http.Post(ts.URL+"/v1/predict", "application/json", strings.NewReader(bodyFor(seed)))
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

	var ok200, rej429, other int
	for i, code := range statuses {
		switch code {
		case http.StatusOK:
			ok200++
		case http.StatusTooManyRequests:
			rej429++
		case -1:
			t.Fatalf("request %d: transport error", i)
		default:
			other++
			t.Errorf("request %d: unexpected status %d", i, code)
		}
	}
	t.Logf("load: %d ok, %d shed (429), %d other", ok200, rej429, other)
	if ok200 == 0 {
		t.Error("no request succeeded under load")
	}
	if rej429 == 0 {
		t.Error("64 concurrent requests against capacity 6 shed nothing — admission control is not engaging")
	}
	if got := reg.Counter(obs.ServeRejected).Value(); got != int64(rej429) {
		t.Errorf("rejected counter = %d, HTTP 429s = %d", got, rej429)
	}

	// Warm each configuration sequentially: whether or not a config's
	// burst requests all got shed, its total training count must be
	// exactly one afterwards — singleflight plus cache.
	for _, seed := range []int64{1, 2} {
		status, raw := postPredict(t, ts.URL, bodyFor(seed))
		if status != http.StatusOK {
			t.Fatalf("sequential warm seed %d: %d (%s)", seed, status, raw)
		}
		if got := st.count(keyFor(seed)); got != 1 {
			t.Errorf("configuration seed=%d trained %d times, want exactly 1", seed, got)
		}
	}
}

// TestRequestTimeout: a request that cannot finish inside its deadline
// gets 504 and records a timeout, instead of hanging.
func TestRequestTimeout(t *testing.T) {
	reg := obs.New()
	s, _ := newTestServer(t, Config{Workers: 1, Queue: 2, RequestTimeout: 60 * time.Millisecond, Obs: reg}, 500*time.Millisecond)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	status, raw := postPredict(t, ts.URL, `{"ranks":[8],"model":{"fast":true}}`)
	if status != http.StatusGatewayTimeout {
		t.Fatalf("status = %d (%s), want 504", status, raw)
	}
	if got := reg.Counter(obs.ServeTimeouts).Value(); got == 0 {
		t.Error("timeout counter did not move")
	}
}

// TestGracefulDrain: cancelling the serve context (SIGTERM) drains
// in-flight requests to completion, flips readiness off, and Serve returns
// nil — the exit-0 contract the smoke harness also checks end to end.
func TestGracefulDrain(t *testing.T) {
	reg := obs.New()
	s, _ := newTestServer(t, Config{Workers: 2, Queue: 4, Obs: reg}, 300*time.Millisecond)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	serveDone := make(chan error, 1)
	go func() { serveDone <- s.Serve(ctx, ln) }()
	base := "http://" + ln.Addr().String()

	// Wait until the listener accepts.
	waitReady(t, base)

	// Launch an in-flight request (training stub holds it ~300ms), then
	// SIGTERM mid-flight.
	inflight := make(chan int, 1)
	go func() {
		resp, err := http.Post(base+"/v1/predict", "application/json",
			bytes.NewReader([]byte(`{"ranks":[8],"model":{"fast":true}}`)))
		if err != nil {
			inflight <- -1
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		inflight <- resp.StatusCode
	}()
	time.Sleep(100 * time.Millisecond) // let the request reach the worker
	cancel()

	select {
	case err := <-serveDone:
		if err != nil {
			t.Fatalf("Serve returned %v, want nil (clean drain)", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after cancellation")
	}
	select {
	case status := <-inflight:
		if status != http.StatusOK {
			t.Fatalf("in-flight request finished with %d, want 200 (drain must complete it)", status)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight request never completed")
	}
	if s.ready.Load() {
		t.Error("server still ready after drain")
	}
	if reg.Timer(obs.ServeDrainNs).Count() != 1 {
		t.Error("drain timer not recorded")
	}
}

func waitReady(t *testing.T, base string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("server never became ready")
}

// TestWorkloadArtefactReplay: a pre-generated workload serves without
// generation, and conflicting parameters are rejected.
func TestWorkloadArtefactReplay(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 2, Obs: obs.New()}, 0)
	wl, err := testTrace(t).GenerateWorkload(picpredict.WorkloadOptions{
		Ranks: 8, Mapping: picpredict.MappingBin, FilterRadius: 0.004,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddWorkload("wl8", wl, "0xwl8"); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	status, raw := postPredict(t, ts.URL, `{"workload":"wl8","model":{"fast":true}}`)
	if status != http.StatusOK {
		t.Fatalf("workload replay: %d (%s)", status, raw)
	}
	var pr PredictResponse
	if err := json.Unmarshal(raw, &pr); err != nil {
		t.Fatal(err)
	}
	if len(pr.Results) != 1 || pr.Results[0].Ranks != 8 {
		t.Fatalf("replay results = %+v, want one R=8 result", pr.Results)
	}
	if status, _ := postPredict(t, ts.URL, `{"workload":"wl8","ranks":[8]}`); status != http.StatusBadRequest {
		t.Errorf("workload+ranks accepted with %d, want 400", status)
	}
	if status, _ := postPredict(t, ts.URL, `{"workload":"missing"}`); status != http.StatusNotFound {
		t.Errorf("unknown workload got %d, want 404", status)
	}
}

// TestDrainingRejectsNewWork: once draining, new predicts get 503.
func TestDrainingRejectsNewWork(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 1, Obs: obs.New()}, 0)
	s.draining.Store(true)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	if status, _ := postPredict(t, ts.URL, `{"ranks":[8]}`); status != http.StatusServiceUnavailable {
		t.Fatalf("draining predict got %d, want 503", status)
	}
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining readyz got %d, want 503", resp.StatusCode)
	}
}

// TestPredictRejectsRanksPastCap: a rank count past core.MaxRanks — the cap
// the workload reader and sweep grids share — is a 400 naming the limit,
// answered before any model is resolved. Unchecked, a bin-mapped 2^30-rank
// body would size every computation-matrix frame at 8 GiB.
func TestPredictRejectsRanksPastCap(t *testing.T) {
	s, st := newTestServer(t, Config{Workers: 2, SweepWorkers: 2, Obs: obs.New()}, 0)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	limit := fmt.Sprintf("exceeds the %d limit", core.MaxRanks)
	for _, body := range []string{
		`{"ranks":[1073741824],"mapping":"bin","model":{"fast":true,"seed":3}}`,
		fmt.Sprintf(`{"ranks":[8,%d],"model":{"fast":true,"seed":3}}`, core.MaxRanks+1),
	} {
		status, raw := postPredict(t, ts.URL, body)
		if status != http.StatusBadRequest || !strings.Contains(string(raw), limit) {
			t.Errorf("predict %s: %d (%s), want 400 containing %q", body, status, raw, limit)
		}
	}
	status, raw := postOptimize(t, ts.URL, `{"ranks":"8,1073741824","model":{"fast":true,"seed":3}}`)
	if status != http.StatusBadRequest || !strings.Contains(string(raw), limit) {
		t.Errorf("optimize: %d (%s), want 400 containing %q", status, raw, limit)
	}
	key := Fingerprint(testCRC, picpredict.ModelSynthetic, picpredict.TrainOptions{Fast: true, Seed: 3})
	if n := st.count(key); n != 0 {
		t.Errorf("rejected requests trained %d model sets, want 0", n)
	}
}

// TestPredictNonFiniteTrace: a registered trace with a NaN coordinate
// answers a non-2xx error on the element-mapped query whose workload build
// used to panic on its memo goroutine (killing the process), and the
// server goes on answering the next valid request.
func TestPredictNonFiniteTrace(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 2, Obs: obs.New()}, 0)
	tr, err := picpredict.NewTraceFromFrames([2][3]float64{{0, 0, 0}, {1, 1, 0.01}}, 3, 1, []int{0},
		[][3]float64{{0.5, 0.5, 0.005}, {math.NaN(), 0.5, 0.005}, {0.52, 0.51, 0.005}})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddTrace("nan", tr.WithMesh(16, 16, 1, 4), "0xnantrace"); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	status, raw := postPredict(t, ts.URL, `{"scenario":"nan","ranks":[4],"mapping":"element","filter":0.05,"model":{"fast":true,"seed":3}}`)
	if status < 300 || !strings.Contains(string(raw), "not finite") {
		t.Errorf("NaN trace query: %d (%s), want a non-2xx error naming the non-finite particle", status, raw)
	}
	status, raw = postPredict(t, ts.URL, `{"scenario":"test","ranks":[8],"mapping":"bin","filter":0.004,"model":{"fast":true,"seed":3}}`)
	if status != http.StatusOK {
		t.Errorf("valid query after the NaN one: %d (%s), want 200", status, raw)
	}
}

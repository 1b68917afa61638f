package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"picpredict"
	"picpredict/internal/obs"
	"picpredict/internal/serve"
)

// serveShape sizes the trace the server holds.
var serveShape = bedShape{Particles: 5000, Frames: 6, Hold: 2}

// replayBuild is the pre-generated workload artefact replays name.
var replayBuild = buildKey{8352, picpredict.MappingElement, ""}

const (
	traceName    = "bed"
	workloadName = "bed-8352-element"
	// serveRate is the offered load in requests per second: about a third
	// of the 43–46 requests/s two workers served of this mix under a
	// saturating schedule, at the commit that defined the benchmark, on a
	// 2-core host — low enough that few requests queue, high enough for
	// 200 samples per class in a 25 s run. At half of it, queueing
	// amplified the host's own noise into the query p50.
	serveRate = 16.0
	// queryShare is the share of trace queries among requests.
	queryShare = 0.5
	// serveSetups is how many times a run sets the server up; the last
	// one serves the load.
	serveSetups = 2
	// batchSize and batches shape the closed-loop passes: each pass
	// serves the schedule's first batchSize requests back to back over
	// every connection, a few seconds of work whose makespan, unlike one
	// short request, averages over the host's scheduling noise.
	batchSize = 150
	batches   = 3
	// spanHeader carries a client span's ID to the server-side span.
	spanHeader = "X-Perfbench-Span"
	// queryOrderSeed fixes which query configurations are hot; the
	// benchmark seed draws the traffic, not the skew.
	queryOrderSeed = 20210517
)

// serveInterval is the open loop's spacing between sends.
func serveInterval() time.Duration {
	rate := serveRate
	return time.Duration(float64(time.Second) / rate)
}

// makespan is how long a batch of samples took from the first send to the
// last answer.
func makespan(samples []sample) time.Duration {
	var end time.Duration
	for _, s := range samples {
		end = max(end, s.done)
	}
	return end
}

// Request classes.
const (
	classQuery  = "query"
	classReplay = "replay"
)

// serveModel is the model block every request carries; the seed selects
// the set-up's own model set.
func serveModel(seed int64) serve.ModelParams { return serve.ModelParams{Fast: true, Seed: seed} }

// queryBodies lists the trace-query configurations: every paper rank count
// × {bin, element, hilbert} × every machine as single-rank bodies, plus
// two-rank bodies on Quartz. The order is a fixed shuffle; the i-th body
// is drawn with weight 1/(i+1), so a few configurations are hot and most
// queries repeat one seen before.
func queryBodies(modelSeed int64) []serve.PredictRequest {
	var out []serve.PredictRequest
	mappings := []picpredict.MappingKind{picpredict.MappingBin, picpredict.MappingElement, picpredict.MappingHilbert}
	for _, r := range paperRanks {
		for _, mp := range mappings {
			for _, mach := range picpredict.MachineNames() {
				out = append(out, serve.PredictRequest{Scenario: traceName, Ranks: []int{r}, Mapping: string(mp),
					Filter: cellFilterRadius, Machine: mach, Model: serveModel(modelSeed)})
			}
		}
	}
	for _, pair := range [][]int{{1044, 8352}, {2088, 4176}} {
		for _, mp := range mappings {
			out = append(out, serve.PredictRequest{Scenario: traceName, Ranks: pair, Mapping: string(mp),
				Filter: cellFilterRadius, Machine: "quartz", Model: serveModel(modelSeed)})
		}
	}
	rng := rand.New(rand.NewSource(queryOrderSeed))
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// replayBodies replays the workload artefact on every machine.
func replayBodies(modelSeed int64) []serve.PredictRequest {
	var out []serve.PredictRequest
	for _, mach := range picpredict.MachineNames() {
		out = append(out, serve.PredictRequest{Workload: workloadName, Machine: mach, Model: serveModel(modelSeed)})
	}
	return out
}

// zipfWeights weights the i-th of n items 1/(i+1).
func zipfWeights(n int) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = 1 / float64(i+1)
	}
	return w
}

// apportion splits n draws across weights exactly, by largest remainder,
// so the multiset of requests — and with it the run's cost mix — does not
// depend on the seed.
func apportion(weights []float64, n int) []int {
	var total float64
	for _, w := range weights {
		total += w
	}
	counts := make([]int, len(weights))
	type rem struct {
		i int
		r float64
	}
	rems := make([]rem, len(weights))
	given := 0
	for i, w := range weights {
		exact := w / total * float64(n)
		counts[i] = int(math.Floor(exact))
		given += counts[i]
		rems[i] = rem{i, exact - math.Floor(exact)}
	}
	sort.SliceStable(rems, func(a, b int) bool { return rems[a].r > rems[b].r })
	for k := 0; given < n; k++ {
		counts[rems[k%len(rems)].i]++
		given++
	}
	return counts
}

// item is one scheduled request.
type item struct {
	class string
	body  int // index into the class's bodies
}

// schedule builds the run's request sequence: n requests at the fixed
// rate, queryShare of them trace queries apportioned over the skewed query
// bodies, the rest replays spread evenly. Each body's draws recur at even
// spacing over the run, so heavy configurations do not clump: where clumps
// fell would change the queueing, and with it the latencies, from seed to
// seed. The bodies' phases step by the golden ratio from an offset drawn
// from the seed, so they stay spread whatever the offset.
func schedule(seed int64, n, nQueryBodies, nReplayBodies int) []item {
	rng := rand.New(rand.NewSource(deriveSeed(seed, "serve-mix.order", 0)))
	type keyed struct {
		item
		key float64
	}
	var all []keyed
	add := func(class string, counts []int) {
		offset := rng.Float64()
		for b, c := range counts {
			_, phase := math.Modf(offset + float64(b)*(math.Sqrt(5)-1)/2)
			for k := 0; k < c; k++ {
				all = append(all, keyed{item{class, b}, (float64(k) + phase) / float64(c)})
			}
		}
	}
	nq := int(math.Round(queryShare * float64(n)))
	add(classQuery, apportion(zipfWeights(nQueryBodies), nq))
	even := make([]float64, nReplayBodies)
	for i := range even {
		even[i] = 1
	}
	add(classReplay, apportion(even, n-nq))
	sort.SliceStable(all, func(i, j int) bool { return all[i].key < all[j].key })
	items := make([]item, len(all))
	for i, k := range all {
		items[i] = k.item
	}
	return items
}

// repeatShare is the share of trace queries whose configuration was
// already queried earlier in the sequence — what a workload memo could
// reuse.
func repeatShare(items []item) float64 {
	seen := map[int]bool{}
	var queries, repeats int
	for _, it := range items {
		if it.class != classQuery {
			continue
		}
		queries++
		if seen[it.body] {
			repeats++
		}
		seen[it.body] = true
	}
	if queries == 0 {
		return 0
	}
	return float64(repeats) / float64(queries)
}

// sample is one request the open loop sent. Times are offsets from the
// start of the loop.
type sample struct {
	item
	due, sent, done time.Duration
	status          int
	err             error
	resp            serve.PredictResponse
	span            int // client span ID (traced runs)
}

func (s sample) latency() time.Duration { return s.done - s.due }
func (s sample) service() time.Duration { return s.done - s.sent }
func (s sample) late() time.Duration    { return lateness(s.due, s.sent) }

// openLoop sends items[i] at i×interval after its start, whatever the
// state of earlier requests, from conns goroutines — at most conns
// requests are in flight, so a request due while every connection is busy
// goes out late, and its latency, counted from the due time, shows it.
// A zero interval makes it a closed loop: every connection sends its next
// request as soon as its last one is answered.
func openLoop(ctx context.Context, client *http.Client, url string, items []item, bodies map[string][][]byte, conns int, interval time.Duration, rec *recorder, parent int) []sample {
	samples := make([]sample, len(items))
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(items) || ctx.Err() != nil {
					return
				}
				s := sample{item: items[i], due: time.Duration(i) * interval}
				if wait := s.due - time.Since(t0); wait > 0 {
					time.Sleep(wait)
				}
				s.span = rec.start(parent, "request."+s.class, "req-"+strconv.Itoa(i))
				s.sent = time.Since(t0)
				s.status, s.resp, s.err = post(ctx, client, url, bodies[s.class][s.body], "req-"+strconv.Itoa(i), s.span)
				s.done = time.Since(t0)
				rec.end(s.span)
				samples[i] = s
			}
		}()
	}
	wg.Wait()
	return samples
}

// post sends one predict request and decodes a 200 answer.
func post(ctx context.Context, client *http.Client, url string, body []byte, reqID string, span int) (int, serve.PredictResponse, error) {
	var resp serve.PredictResponse
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/v1/predict", bytes.NewReader(body))
	if err != nil {
		return 0, resp, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-ID", reqID)
	if span != 0 {
		req.Header.Set(spanHeader, strconv.Itoa(span))
	}
	r, err := client.Do(req)
	if err != nil {
		return 0, resp, err
	}
	defer r.Body.Close()
	raw, err := io.ReadAll(r.Body)
	if err != nil {
		return r.StatusCode, resp, err
	}
	if r.StatusCode == http.StatusOK {
		err = json.Unmarshal(raw, &resp)
	}
	return r.StatusCode, resp, err
}

// spanHandler records a server-side span around every request, linked to
// the client span that sent it.
func spanHandler(rec *recorder, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, _ := strconv.Atoi(r.Header.Get(spanHeader)) // absent on set-up requests
		id := rec.start(parent, "serve.handle", r.Header.Get("X-Request-ID"))
		h.ServeHTTP(w, r)
		rec.end(id)
	})
}

// server is one set-up picserve: its artefacts, the running server and
// how to stop it.
type server struct {
	tr     *picpredict.Trace
	wl     *picpredict.Workload
	url    string
	client *http.Client
	bodies map[string][][]byte
	stop   func() error
	took   time.Duration
}

// setupServe performs one serve-mix set-up, timed end to end: synthesize
// the bed trace and store it as an artefact, read it back, pre-generate
// the replay workload and store and read it back the same way, start a
// serve.Server with production defaults (Workers set to the core count)
// on a loopback listener, and warm both model keys with one request each.
// A non-nil rec records the set-up's spans under parent and mounts the
// handler behind spanHandler.
func (e *env) setupServe(ctx context.Context, rec *recorder, parent, rep int, modelSeed int64, reg *obs.Registry) (*server, error) {
	t0 := time.Now()
	id := rec.start(parent, "trace.synth", "")
	tr, err := synthBed(deriveSeed(e.seed, "serve-mix.trace", rep), serveShape)
	rec.end(id)
	if err != nil {
		return nil, err
	}
	tracePath := filepath.Join(e.dir, fmt.Sprintf("serve-%d.trace", rep))
	id = rec.start(parent, "trace.write", "")
	err = writeTrace(tracePath, tr)
	rec.end(id)
	if err != nil {
		return nil, err
	}
	id = rec.start(parent, "trace.read", "")
	tr, err = readTrace(tracePath)
	rec.end(id)
	if err != nil {
		return nil, err
	}
	id = rec.start(parent, "artefact.workload", "")
	wlPath := filepath.Join(e.dir, fmt.Sprintf("serve-%d.workload", rep))
	wl, err := tr.GenerateWorkload(replayBuild.options())
	if err == nil {
		err = writeWorkload(wlPath, wl)
	}
	if err == nil {
		wl, err = readWorkload(wlPath)
	}
	rec.end(id)
	if err != nil {
		return nil, err
	}
	traceCRC, err := artefactCRC(tracePath)
	if err != nil {
		return nil, err
	}
	wlCRC, err := artefactCRC(wlPath)
	if err != nil {
		return nil, err
	}

	id = rec.start(parent, "serve.start", "")
	srv := serve.New(serve.Config{Workers: e.nproc, Obs: reg})
	if err := srv.AddTrace(traceName, tr, traceCRC); err != nil {
		return nil, err
	}
	if err := srv.AddWorkload(workloadName, wl, wlCRC); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{tr: tr, wl: wl, url: "http://" + ln.Addr().String()}
	s.stop = startServer(srv, ln, rec)
	s.client = &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: e.nproc, MaxIdleConnsPerHost: e.nproc},
		Timeout:   30 * time.Second,
	}
	if err := waitReady(ctx, s.client, s.url); err != nil {
		return nil, errors.Join(err, s.stop())
	}
	rec.end(id)

	s.bodies = map[string][][]byte{}
	for class, reqs := range map[string][]serve.PredictRequest{
		classQuery: queryBodies(modelSeed), classReplay: replayBodies(modelSeed),
	} {
		for _, r := range reqs {
			raw, err := json.Marshal(r)
			if err != nil {
				return nil, errors.Join(err, s.stop())
			}
			s.bodies[class] = append(s.bodies[class], raw)
		}
	}
	// Warm-up trains the model set of each artefact key, both at once.
	id = rec.start(parent, "serve.warmup", "")
	var wg sync.WaitGroup
	statuses := make([]int, 2)
	errs := make([]error, 2)
	for i, class := range []string{classQuery, classReplay} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			statuses[i], _, errs[i] = post(ctx, s.client, s.url, s.bodies[class][0], "warmup-"+class, 0)
		}()
	}
	wg.Wait()
	rec.end(id)
	s.took = time.Since(t0)
	for i := range statuses {
		if e.tally.add(outcome{status: statuses[i], err: errs[i], ok: true}) {
			return nil, errors.Join(fmt.Errorf("warm-up request failed: status %d: %v", statuses[i], errs[i]), s.stop())
		}
	}
	return s, nil
}

// startServer runs srv on ln and returns the function that stops it and
// waits for it to exit. Untraced, it is the production lifecycle
// (Server.Serve, drained on cancel); traced, the handler is mounted on an
// http.Server of the same settings behind spanHandler.
func startServer(srv *serve.Server, ln net.Listener, rec *recorder) func() error {
	done := make(chan error, 1)
	if rec == nil {
		ctx, cancel := context.WithCancel(context.Background())
		go func() { done <- srv.Serve(ctx, ln) }()
		return func() error {
			cancel()
			return <-done
		}
	}
	hs := &http.Server{Handler: spanHandler(rec, srv.Handler()), ReadHeaderTimeout: 10 * time.Second}
	srv.MarkReady()
	go func() { done <- hs.Serve(ln) }()
	return func() error {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		err := hs.Shutdown(ctx)
		<-done // http.ErrServerClosed once Shutdown begins
		srv.Close()
		return err
	}
}

// waitReady polls /readyz until the server reports ready.
func waitReady(ctx context.Context, client *http.Client, url string) error {
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/readyz", nil)
		if err != nil {
			return err
		}
		r, err := client.Do(req)
		if err == nil {
			_, _ = io.Copy(io.Discard, r.Body) // drained so the connection is reused
			r.Body.Close()
			if r.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	return errors.New("server did not become ready")
}

// shutdown stops the server and releases the client's connections.
func (s *server) shutdown() error {
	err := s.stop()
	s.client.CloseIdleConnections()
	return err
}

// expected is the reference answer to one distinct body, with the time
// the direct calls took.
type expected struct {
	results  []serve.PredictResult
	gen, sim time.Duration
}

// references answers every distinct body the samples sent through a
// second path: the two steps of PredictFromTrace (GenerateWorkloadContext,
// then PredictWorkload) for trace queries, PredictWorkload over the
// artefact for replays — called directly with the models the server
// trained (the same options as the golden check's). Each build is made
// once per (ranks, mapping) and shared across machines; its time is
// charged to every body that needs it, as the server pays it each time.
func (e *env) references(ctx context.Context, parent int, s *server, samples []sample, reg *obs.Registry) (map[item]*expected, []*picpredict.Prediction, int64, error) {
	queries, replays := queryBodies(1), replayBodies(1)
	distinct := map[item]bool{}
	for _, sm := range samples {
		distinct[sm.item] = true
	}
	keys := make([]item, 0, len(distinct))
	for it := range distinct {
		keys = append(keys, it)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].class != keys[j].class {
			return keys[i].class < keys[j].class
		}
		return keys[i].body < keys[j].body
	})

	type build struct {
		wl   *picpredict.Workload
		took time.Duration
	}
	builds := map[buildKey]build{}
	out := map[item]*expected{}
	var preds []*picpredict.Prediction
	var particleFrames int64
	gctx := obs.With(ctx, reg)
	for _, it := range keys {
		exp := &expected{}
		var req serve.PredictRequest
		if it.class == classQuery {
			req = queries[it.body]
		} else {
			req = replays[it.body]
		}
		m, err := machineSpec(req.Machine)
		if err != nil {
			return nil, nil, 0, err
		}
		q := picpredict.QueryOptions{TotalElements: cellTotalElems, GridN: cellGridN, FilterElements: 1, Machine: m, Obs: reg}
		ranks := req.Ranks
		if it.class == classReplay {
			ranks = []int{s.wl.Ranks()}
		}
		for _, r := range ranks {
			wl := s.wl
			if it.class == classQuery {
				k := buildKey{r, picpredict.MappingKind(req.Mapping), ""}
				b, ok := builds[k]
				if !ok {
					id := e.rec.start(parent, "core.generate", k.label())
					t0 := time.Now()
					b.wl, err = s.tr.GenerateWorkloadContext(gctx, k.options())
					b.took = time.Since(t0)
					e.rec.end(id)
					if err != nil {
						return nil, nil, 0, err
					}
					builds[k] = b
					particleFrames += int64(serveShape.Particles) * int64(serveShape.Frames)
				}
				wl, exp.gen = b.wl, exp.gen+b.took
			}
			id := e.rec.start(parent, "bsst.predict", fmt.Sprintf("%s-%d@%d", it.class, it.body, r))
			t0 := time.Now()
			pred, err := picpredict.PredictWorkload(e.golden, wl, q)
			exp.sim += time.Since(t0)
			e.rec.end(id)
			if err != nil {
				return nil, nil, 0, err
			}
			preds = append(preds, pred)
			exp.results = append(exp.results, serve.PredictResult{Ranks: pred.Ranks, TotalSec: pred.Total, PeakParticles: wl.Peak()})
		}
		out[it] = exp
	}
	return out, preds, particleFrames, nil
}

// check scores every sample against its body's reference answer.
func (e *env) check(samples []sample, refs map[item]*expected) {
	for _, s := range samples {
		exp := refs[s.item]
		ok := exp != nil && len(s.resp.Results) == len(exp.results)
		for i := 0; ok && i < len(exp.results); i++ {
			got, want := s.resp.Results[i], exp.results[i]
			ok = got.Ranks == want.Ranks && got.PeakParticles == want.PeakParticles &&
				math.Float64bits(got.TotalSec) == math.Float64bits(want.TotalSec)
		}
		e.tally.add(outcome{status: s.status, err: s.err, ok: ok})
	}
}

// classLatencies splits the answered samples' latencies (from the due
// time) by class.
func classLatencies(samples []sample) map[string][]float64 {
	out := map[string][]float64{}
	for _, s := range samples {
		if s.err == nil && s.status == http.StatusOK {
			out[s.class] = append(out[s.class], ms(s.latency()))
		}
	}
	return out
}

// runServeMix is the serve-mix workload: serveSetups timed set-ups (each
// with its own model seed, the last one serving), an open loop of
// --seconds at serveRate whose per-class latencies the run reports, then
// closed-loop passes over the schedule's first batchSize requests, whose
// median makespan is the gated op_p50_ms, and every answer checked against
// the direct path.
func runServeMix(ctx context.Context, e *env) (*report, error) {
	if err := e.referenceModels(); err != nil {
		return nil, err
	}
	if e.traced {
		return tracedServeMix(ctx, e)
	}
	var setups []float64
	var s *server
	for rep := 0; rep < serveSetups; rep++ {
		var err error
		s, err = e.setupServe(ctx, nil, 0, rep, int64(serveSetups-rep), nil)
		if err != nil {
			return nil, err
		}
		setups = append(setups, s.took.Seconds())
		if rep < serveSetups-1 {
			if err := s.shutdown(); err != nil {
				return nil, err
			}
		}
	}
	n := int(serveRate * e.seconds.Seconds())
	items := schedule(e.seed, n, len(queryBodies(1)), len(replayBodies(1)))
	runtime.GC()
	samples := openLoop(ctx, s.client, s.url, items, s.bodies, e.nproc, serveInterval(), nil, 0)
	var passes []float64
	checked := samples
	for i := 0; i < batches; i++ {
		runtime.GC()
		batch := openLoop(ctx, s.client, s.url, items[:min(batchSize, len(items))], s.bodies, e.nproc, 0, nil, 0)
		passes = append(passes, ms(makespan(batch)))
		checked = append(checked, batch...)
	}
	if err := s.shutdown(); err != nil {
		return nil, err
	}
	refs, _, _, err := e.references(ctx, 0, s, checked, nil)
	if err != nil {
		return nil, err
	}
	e.check(checked, refs)

	rss, err := peakRSSMiB()
	if err != nil {
		return nil, err
	}
	lat := classLatencies(samples)
	var late []float64
	for _, sm := range samples {
		late = append(late, ms(sm.late()))
	}
	_, opQ := tail(lat[classQuery])
	_, replayQ := tail(lat[classReplay])
	return &report{
		e2e: map[string]float64{
			"setup_s":     median(setups),
			"op_p50_ms":   median(passes),
			"peak_rss_mb": rss,
		},
		inputs: e.inputsOf(map[string]any{
			"trace":            serveShape,
			"replay_artefact":  replayBuild.label(),
			"rate_rps":         serveRate,
			"requests":         n,
			"batch_requests":   min(batchSize, n),
			"batches":          batches,
			"query_share":      queryShare,
			"query_bodies":     len(queryBodies(1)),
			"replay_bodies":    len(replayBodies(1)),
			"query_samples":    len(lat[classQuery]),
			"replay_samples":   len(lat[classReplay]),
			"query_tail_pct":   opQ,
			"replay_tail_pct":  replayQ,
			"repeat_share":     repeatShare(items),
			"late_p95_ms":      percentile(late, 95),
			"setups":           serveSetups,
			"server_workers":   e.nproc,
			"open_loop_shape":  "fixed rate, at most one request in flight per connection",
			"distinct_answers": len(refs),
		}),
		samples: map[string][]float64{"setup_s": setups, "op_ms": passes},
		aliases: map[string]metricValue{
			"predict_p50_ms":                      {median(lat[classQuery]), "ms"},
			fmt.Sprintf("predict_p%g_ms", opQ):    {percentile(lat[classQuery], opQ), "ms"},
			"replay_p50_ms":                       {median(lat[classReplay]), "ms"},
			fmt.Sprintf("replay_p%g_ms", replayQ): {percentile(lat[classReplay], replayQ), "ms"},
		},
	}, nil
}

// referenceModels trains the models the direct path checks the server's
// answers with — the options every serving set-up's last server trains —
// and reproduces the golden fixture with them.
func (e *env) referenceModels() error {
	id := e.rec.start(0, "reference.train", "")
	models, err := picpredict.TrainModels(goldenModelOpts)
	e.rec.end(id)
	if err != nil {
		return err
	}
	return e.checkGolden(models)
}

// tracedServeMix runs serve-mix once more with spans, on half of --seconds
// per pass: an untraced reference pass (its own set-up, no registry), then
// a traced set-up whose server has a registry and a span around its
// handler, the traced open loop, and the direct generate and simulate
// calls for each distinct configuration.
func tracedServeMix(ctx context.Context, e *env) (*report, error) {
	n := int(serveRate * e.seconds.Seconds() / 2)
	items := schedule(e.seed, n, len(queryBodies(1)), len(replayBodies(1)))

	top := e.rec.start(0, "reference.untraced", "")
	ref, err := e.setupServe(ctx, nil, 0, 0, 2, nil)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	refSamples := openLoop(ctx, ref.client, ref.url, items, ref.bodies, e.nproc, serveInterval(), nil, 0)
	if err := ref.shutdown(); err != nil {
		return nil, err
	}
	e.rec.end(top)
	for _, sm := range refSamples {
		e.tally.add(outcome{status: sm.status, err: sm.err, ok: true})
	}

	reg := obs.New()
	top = e.rec.start(0, "setup", "")
	s, err := e.setupServe(ctx, e.rec, top, 1, 1, reg)
	e.rec.end(top)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	top = e.rec.start(0, "loadgen", "")
	samples := openLoop(ctx, s.client, s.url, items, s.bodies, e.nproc, serveInterval(), e.rec, top)
	err = s.shutdown()
	e.rec.end(top)
	if err != nil {
		return nil, err
	}

	directReg := obs.New()
	top = e.rec.start(0, "checks", "")
	refs, preds, pf, err := e.references(ctx, top, s, samples, directReg)
	e.rec.end(top)
	if err != nil {
		return nil, err
	}
	e.check(samples, refs)

	spans := e.rec.snapshot()
	handled := map[int]time.Duration{} // client span → server span duration
	for _, sp := range spans {
		if sp.Name == "serve.handle" && sp.Parent != 0 {
			handled[sp.Parent] = sp.dur()
		}
	}
	var self, handle, late []float64
	var srvTime, gen, sim = map[string]time.Duration{}, map[string]time.Duration{}, map[string]time.Duration{}
	var tracedSvc, refSvc time.Duration
	for _, sm := range samples {
		late = append(late, ms(sm.late()))
		tracedSvc += sm.service()
		exp, d := refs[sm.item], handled[sm.span]
		if exp == nil || d == 0 {
			continue
		}
		handle = append(handle, ms(d))
		self = append(self, ms(d-exp.gen-exp.sim))
		srvTime[sm.class] += d
		gen[sm.class] += exp.gen
		sim[sm.class] += exp.sim
	}
	for _, sm := range refSamples {
		refSvc += sm.service()
	}

	m := map[string]float64{}
	snap, directSnap := reg.Snapshot(), directReg.Snapshot()
	m["trace.read_s"] = secs(sumByName(spans, "trace.read"))
	m["kernels.train_s"] = secs(timerSum(snap, obs.ServeTrainNs))
	coreLayers(m, spans, directSnap, pf)
	bsstLayers(m, spans, directSnap, preds)
	// Server time is the span around the handler, admission wait
	// included, as serve.request_ns times it (a timer, so without
	// percentiles of its own).
	m["serve.server_p50_ms"] = median(handle)
	m["serve.self_ms"] = median(self)
	m["serve.queue_depth_p99"] = float64(snap.Histograms[obs.ServeQueueDepth].P99)
	hits, misses := snap.Counters[obs.ServeCacheHits], snap.Counters[obs.ServeCacheMisses]
	m["serve.model_cache.hits"] = float64(hits)
	m["serve.model_cache.misses"] = float64(misses)
	if hits+misses > 0 {
		m["serve.model_cache_hit_ratio"] = float64(hits) / float64(hits+misses)
	}
	m["serve.repeat_share"] = repeatShare(items)
	lat := classLatencies(samples)
	m["serve.query_samples"] = float64(len(lat[classQuery]))
	m["serve.replay_samples"] = float64(len(lat[classReplay]))
	m["serve.rejected"] = float64(snap.Counters[obs.ServeRejected])
	m["serve.timeouts"] = float64(snap.Counters[obs.ServeTimeouts])
	m["serve.errors"] = float64(snap.Counters[obs.ServeErrors])
	m["loadgen.late_p95_ms"] = percentile(late, 95)
	if d := srvTime[classQuery]; d > 0 {
		m["serve.query_core_share"] = gen[classQuery].Seconds() / d.Seconds()
		m["serve.query_bsst_share"] = sim[classQuery].Seconds() / d.Seconds()
	}
	// share.* describe a replay request: what of its server time the
	// generator (never) and the simulator take.
	if d := srvTime[classReplay]; d > 0 {
		m["share.core"] = gen[classReplay].Seconds() / d.Seconds()
		m["share.bsst"] = sim[classReplay].Seconds() / d.Seconds()
	}
	if refSvc > 0 {
		m["trace_overhead"] = tracedSvc.Seconds()/refSvc.Seconds() - 1
	}
	var totals []float64
	for _, p := range preds {
		totals = append(totals, p.Total)
	}
	m["check.digest"] = float64(digest(totals))
	e.checkCoverage(m)
	return &report{
		layers: m,
		contrast: fmt.Sprintf("of a replay request's server time core takes %.0f%% and bsst %.0f%%; of a trace query's, core %.0f%% and bsst %.0f%%; pic is absent",
			100*m["share.core"], 100*m["share.bsst"], 100*m["serve.query_core_share"], 100*m["serve.query_bsst_share"]),
		inputs: e.inputsOf(map[string]any{
			"trace":           serveShape,
			"replay_artefact": replayBuild.label(),
			"rate_rps":        serveRate,
			"requests":        n,
			"repeat_share":    repeatShare(items),
		}),
	}, nil
}

package main

// The daemon-open workload: one in-process ch-imaged (daemon.New +
// Handler, served over loopback HTTP) with a persistent cache dir and
// --jobs = nproc, taking requests at one fixed arrival rate regardless of
// how fast it answers (an open loop). Each request is timed from the
// moment it was due to the first poll that sees it settled.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/daemon"
	"repro/internal/obs"
)

// daemonMix is the daemon workload's request mix: make bench-daemon's
// four warm variants with every 16th request a cold build (loadgen
// --variants 4 --cold-every 16), plus as many edits as cold builds. The
// variants hold the steps, stages, installs and bases four corpus files
// hold on average.
var daemonMix = Mix{
	Variants: 4, Steps: 10, Stages: 5, Installs: [3]int{2, 1, 0}, Bases: [3]int{3, 1, 0},
	EditShare: frac{1, 16}, ColdShare: frac{1, 16}, EditTail: span{1, 3},
}

const (
	// daemonRate is the fixed arrival rate in requests per second.
	daemonRate = 150
	// sloMs is the latency limit slo_miss_ratio counts against.
	sloMs = 50
	// pollEvery is the client's poll interval.
	pollEvery = 2 * time.Millisecond
	// drainWait bounds how long the run waits for requests still in
	// flight when the schedule ends.
	drainWait = 60 * time.Second
)

// daemonRun is one running daemon and its client.
type daemonRun struct {
	d        *daemon.Daemon
	srv      *http.Server
	served   chan struct{}
	client   *http.Client
	base     string
	root     string
	jobs     int
	variants []Dockerfile
	gen      *gen
}

// setupDaemon starts a daemon over a fresh store in dir, serves it on a
// loopback port and builds every working-set variant once.
func setupDaemon(ctx context.Context, dir string, seed int64) (*daemonRun, error) {
	jobs := runtime.NumCPU()
	r := &daemonRun{root: filepath.Join(dir, "cas"), jobs: jobs, gen: newGen(seed, corpus)}
	d, err := daemon.New(daemon.Config{Jobs: jobs, Queue: 1024, CacheDir: r.root})
	if err != nil {
		return nil, err
	}
	if err := d.Start(ctx); err != nil {
		d.Shutdown(ctx)
		return nil, err
	}
	r.d = d
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		r.stop()
		return nil, err
	}
	r.srv = &http.Server{Handler: d.Handler()}
	r.served = make(chan struct{})
	go func() {
		defer close(r.served)
		r.srv.Serve(ln) // returns ErrServerClosed once stop shuts the server down
	}()
	r.base = "http://" + ln.Addr().String()
	r.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: jobs, MaxIdleConnsPerHost: jobs, DisableCompression: true,
	}}
	r.variants = r.gen.workingSet(daemonMix)
	for v, df := range r.variants {
		s := r.do(ctx, request{Tag: fmt.Sprintf("variant-%d:latest", v), DF: df}, time.Now(), false)
		if s.err != nil {
			r.stop()
			return nil, fmt.Errorf("warm variant %d: %w", v, s.err)
		}
	}
	return r, nil
}

// stop shuts the HTTP server and the daemon down and waits for both.
func (r *daemonRun) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), drainWait)
	defer cancel()
	if r.srv != nil {
		r.srv.Shutdown(ctx)
		<-r.served
	}
	if r.client != nil {
		r.client.CloseIdleConnections()
	}
	r.d.Shutdown(ctx)
}

// sample is one request as the client saw it.
type sample struct {
	class, tag                 string
	due, sent, posted, seen    time.Time
	created, started, finished time.Time
	succeeded                  bool // the daemon settled it as succeeded
	executed, hits             int
	vns                        int64
	rejected                   int
	err                        error
	spans                      *obs.SpanData
}

// do POSTs one build and polls it until it settles. A 429 or 503 is a
// refused request: it fails at once, with no retry.
func (r *daemonRun) do(ctx context.Context, req request, due time.Time, traced bool) sample {
	s := sample{class: req.Class, tag: req.Tag, due: due, sent: time.Now()}
	body, err := json.Marshal(daemon.BuildRequest{
		Tag: req.Tag, Dockerfile: req.DF.Text, Context: req.DF.Context, Force: "seccomp",
	})
	if err != nil {
		s.err = err
		return s
	}
	var op daemon.Operation
	code, err := r.call(ctx, http.MethodPost, "/v1/builds", body, &op)
	s.posted = time.Now()
	switch {
	case err != nil:
		s.err = err
		return s
	case code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable:
		s.rejected++
		s.err = fmt.Errorf("POST refused with %d", code)
		return s
	case code != http.StatusAccepted:
		s.err = fmt.Errorf("POST answered %d", code)
		return s
	}
	for !terminal(op.Status) {
		select {
		case <-ctx.Done():
			s.err = ctx.Err()
			return s
		case <-time.After(pollEvery):
		}
		id := op.ID
		op = daemon.Operation{}
		if code, err := r.call(ctx, http.MethodGet, "/v1/operations/"+id, nil, &op); err != nil || code != http.StatusOK {
			s.err = fmt.Errorf("poll %s: %d %v", id, code, err)
			return s
		}
	}
	s.seen = time.Now()
	for _, ts := range []struct {
		dst *time.Time
		src string
	}{{&s.created, op.CreatedAt}, {&s.started, op.StartedAt}, {&s.finished, op.FinishedAt}} {
		if t, err := time.Parse(time.RFC3339Nano, ts.src); err == nil {
			*ts.dst = t
		}
	}
	if op.Status != daemon.StatusSucceeded {
		s.err = fmt.Errorf("operation %s %s: %s", op.ID, op.Status, op.Error)
		return s
	}
	if op.Result == nil {
		s.err = fmt.Errorf("operation %s settled without a result", op.ID)
		return s
	}
	s.succeeded = true
	s.executed, s.hits, s.vns = op.Result.Executed, op.Result.CacheHits, op.Result.VirtualNanos
	if op.Result.Degraded {
		s.err = fmt.Errorf("operation %s degraded: %v", op.ID, op.Result.DegradedErrs)
	}
	if traced {
		s.spans = op.Spans
	}
	return s
}

func terminal(status string) bool {
	return status == daemon.StatusSucceeded || status == daemon.StatusFailed || status == daemon.StatusCancelled
}

// call makes one HTTP request and decodes a JSON answer into out.
func (r *daemonRun) call(ctx context.Context, method, path string, body []byte, out any) (int, error) {
	req, err := http.NewRequestWithContext(ctx, method, r.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode/100 == 2 && out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return resp.StatusCode, err
		}
	}
	return resp.StatusCode, nil
}

// scrape reads the daemon's /metrics.
func (r *daemonRun) scrape(ctx context.Context) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	return parseExposition(string(data)), nil
}

func runDaemon(ctx context.Context, cfg config) (*outcome, error) {
	return setUpAndMeasure(cfg, func(dir string) (*daemonRun, error) {
		return setupDaemon(ctx, dir, cfg.seed)
	}, (*daemonRun).stop, func(run *daemonRun) (*outcome, error) {
		return measureDaemon(ctx, cfg, run)
	})
}

// measureDaemon sends the schedule: request i is due at start + i/rate.
// The generator spawns each request when due and never waits for an
// answer; a traced run traces every second request. The first second of
// requests warms the daemon's heap and caches: they are checked like the
// rest but not timed.
func measureDaemon(ctx context.Context, cfg config, run *daemonRun) (*outcome, error) {
	out := &outcome{}
	before, err := run.scrape(ctx)
	if err != nil {
		return nil, err
	}
	blobs0, journal0 := storeBytes(run.root)
	warmup := daemonRate
	n := warmup + int(cfg.seconds.Seconds()*daemonRate)
	interval := time.Second / daemonRate
	samples := make([]sample, n)
	want := make([]request, n)
	rctx, cancel := context.WithTimeout(ctx, time.Second+cfg.seconds+drainWait)
	defer cancel()
	var wg sync.WaitGroup
	start := time.Now().Add(10 * time.Millisecond)
	for i := 0; i < n; i++ {
		req := run.gen.request(i, run.variants, daemonMix)
		want[i] = request{Class: req.Class, WantExec: req.WantExec, WantHits: req.WantHits}
		due := start.Add(time.Duration(i) * interval)
		time.Sleep(time.Until(due))
		wg.Add(1)
		go func(i int, req request, due time.Time) {
			defer wg.Done()
			samples[i] = run.do(rctx, req, due, cfg.trace && i%2 == 1)
		}(i, req, due)
	}
	wg.Wait()
	heap := heapMiB()
	after, err := run.scrape(ctx)
	if err != nil {
		return nil, err
	}
	blobs1, journal1 := storeBytes(run.root)

	// Checks: every request succeeds with the counters its class
	// implies, and the server's counter deltas equal the client's sums.
	var lat, latTraced, postMs, queueMs, runMs, pollLag, genLag []float64
	var vns []float64
	var ok, settled, executed, hits, misses, rejected, writes int
	var busy float64
	runByTag := map[string][]float64{}
	var first, last time.Time
	lt := newLayerTimes()
	var trees []obs.SpanData
	for i, s := range samples {
		out.attempted++
		rejected += s.rejected
		if want[i].Class != classWarm {
			writes++
		}
		if i >= warmup {
			genLag = append(genLag, ms(s.sent.Sub(s.due)))
		}
		if s.succeeded {
			settled++
			executed += s.executed
			hits += s.hits
		}
		if s.err == nil && (s.executed != want[i].WantExec || s.hits != want[i].WantHits) {
			s.err = fmt.Errorf("%s request: executed %d, cache hits %d; want %d and %d",
				s.class, s.executed, s.hits, want[i].WantExec, want[i].WantHits)
		}
		if s.err != nil {
			out.fail("request %d: %v", i, s.err)
			if i >= warmup {
				misses++
			}
			continue
		}
		if i < warmup {
			continue
		}
		ok++
		l := ms(s.seen.Sub(s.due))
		if l > sloMs {
			misses++
		}
		if cfg.trace && i%2 == 1 {
			latTraced = append(latTraced, l)
		} else {
			lat = append(lat, l)
		}
		postMs = append(postMs, ms(s.posted.Sub(s.sent)))
		queueMs = append(queueMs, ms(s.started.Sub(s.created)))
		runMs = append(runMs, ms(s.finished.Sub(s.started)))
		busy += ms(s.finished.Sub(s.started))
		runByTag[s.tag] = append(runByTag[s.tag], ms(s.finished.Sub(s.started)))
		pollLag = append(pollLag, ms(s.seen.Sub(s.finished)))
		vns = append(vns, float64(s.vns))
		if first.IsZero() || s.due.Before(first) {
			first = s.due
		}
		if s.seen.After(last) {
			last = s.seen
		}
		if s.spans != nil {
			tree := requestTree(s)
			trees = append(trees, tree)
			lt.add(tree)
		}
	}
	if ok == 0 {
		return nil, errNoBuilds
	}
	if err := crossCheck(before, after, settled, executed, hits); err != nil {
		out.fail("/metrics cross-check: %v", err)
	}

	var st stationarity
	st.bytesStart, st.journalStart = blobs0+journal0, journal0
	st.bytesEnd, st.journalEnd = blobs1+journal1, journal1
	st.p50First, st.p50Second = halves(lat)
	if err := st.report(cfg.log); err != nil {
		out.fail("stationarity: %v", err)
	}
	if err := st.growthGuard(writes); err != nil {
		out.fail("stationarity: %v", err)
	}
	elapsed := last.Sub(first).Seconds()
	tail := p99Tail(len(lat))
	fmt.Fprintf(cfg.log, "  %d requests at %d/s (%d warm-up, %d untraced, %d traced), %d failed, %d refused\n",
		out.attempted, daemonRate, warmup, len(lat), len(latTraced), out.failed, rejected)
	printTail(cfg.log, quantile(lat, tail), tail, len(lat))
	fmt.Fprintf(cfg.log, "  failed_ratio %.4f ratio (%d of %d)\n", float64(out.failed)/float64(out.attempted), out.failed, out.attempted)
	fmt.Fprintf(cfg.log, "  slo_miss_ratio %.4f ratio (over %d ms or failed: %d of %d timed)\n",
		float64(misses)/float64(n-warmup), sloMs, misses, n-warmup)
	// The open loop fixes the completion rate at the offered rate, so
	// builds_per_s is the pool's capacity instead: builds per second of
	// its workers' time, each kind of request (its class and variant, as
	// its tag names them) costing its median run time. A mean would follow
	// the odd build a scheduling stall hit. Unlike the CLI workloads' times,
	// these stay as measured: across runs of one seed they spread by a few
	// percent, and a reference job sampled beside the daemon spread more.
	// build_ms_p50 is mostly the client's poll interval.
	var workerMs float64
	for _, rs := range runByTag {
		workerMs += float64(len(rs)) * quantile(rs, 0.5)
	}
	out.e2e = endToEnd(map[string]float64{
		"build_ms_p50": quantile(lat, 0.5),
		"builds_per_s": float64(run.jobs*ok) / (workerMs / 1000),
		"heap_mib":     heap,
		"store_mib":    float64(st.bytesEnd) / mib,
	})
	if !cfg.trace {
		return out, nil
	}

	var texts []string
	for _, v := range run.variants {
		texts = append(texts, v.Text)
	}
	p, err := runProbes(ctx, texts, nil, "")
	if err != nil {
		return nil, err
	}
	perReq := func(k string) float64 { return delta(before, after, k) / float64(out.attempted) }
	hitRatio := 0.0
	if h, m := delta(before, after, "ch_build_cache_hits_total"), delta(before, after, "ch_build_cache_misses_total"); h+m > 0 {
		hitRatio = h / (h + m)
	}
	lt.print(cfg.log)
	out.spans = trees
	out.layers = layerMetrics(map[string]float64{
		"cas.gc_swept_bytes_per_build":    perReq("ch_cas_gc_swept_bytes_total"),
		"cas.blob_write_bytes_per_build":  perReq("ch_cas_blob_write_bytes_total"),
		"cas.journal_appends_per_build":   perReq("ch_cas_journal_appends_total"),
		"cas.blob_read_bytes_per_build":   perReq("ch_cas_blob_read_bytes_total"),
		"cas.flock_wait_ms":               1000 * perReq("ch_cas_flock_wait_seconds_sum"),
		"cas.retries":                     delta(before, after, "ch_cas_retries_total"),
		"image.flatten_fills_per_build":   perReq("ch_image_flatten_fills_total"),
		"image.rehydrates_per_build":      perReq("ch_image_flatten_rehydrates_total"),
		"build.build_ms_self":             lt.medianPerTree("build.self"),
		"build.stage_ms_self":             lt.medianPerTree("build.stage_self"),
		"build.executed_per_build":        perReq(`ch_build_instructions_total{mode="executed"}`),
		"build.replayed_per_build":        perReq(`ch_build_instructions_total{mode="replayed"}`),
		"build.cache_hit_ratio":           hitRatio,
		"build.instr_ms_hit":              lt.median("build.instr_hit"),
		"build.instr_ms_miss":             lt.median("build.instr_miss"),
		"core.generate_us":                p.generateUs,
		"core.filter_insns":               float64(p.filterInsns),
		"dockerfile.parse_us":             p.parseUs,
		"rootemu.vns_per_build":           mean(vns),
		"daemon.post_ms":                  quantile(postMs, 0.5),
		"daemon.queue_wait_ms":            quantile(queueMs, 0.5),
		"daemon.run_ms":                   quantile(runMs, 0.5),
		"daemon.poll_lag_ms":              quantile(pollLag, 0.5),
		"daemon.rejected":                 float64(rejected),
		"daemon.generator_lag_ms_p99":     quantile(genLag, p99Tail(len(genLag))),
		"daemon.busy_ratio":               busy / 1000 / (float64(run.jobs) * elapsed),
		"obs.trace_overhead_ratio":        quantile(latTraced, 0.5) / quantile(lat, 0.5),
		"trace.coverage_ratio":            quantile(lt.coverage, 0.5),
		"stationarity.p50_drift_ratio":    st.drift(),
		"stationarity.store_growth_bytes": float64(st.bytesEnd - st.bytesStart),
		"host.build_ms_p50_raw":           quantile(lat, 0.5),
	})
	return out, nil
}

// requestTree is one traced request as a span tree rooted at its due
// time: the generator's lateness, the POST up to admission, the daemon's
// own operation trace (admission to settle, engine spans beneath) and the
// lag until a poll saw the result. The four segments do not overlap and
// together cover the request's latency.
func requestTree(s sample) obs.SpanData {
	at := func(t time.Time) float64 { return ms(t.Sub(s.due)) }
	seg := func(name string, from, to time.Time) obs.SpanData {
		return obs.SpanData{Name: name, StartMs: at(from), DurationMs: ms(to.Sub(from))}
	}
	op := shiftSpans(*s.spans, at(s.created))
	return obs.SpanData{
		Name: "request", DurationMs: at(s.seen),
		Children: []obs.SpanData{
			seg("daemon.generator_lag", s.due, s.sent),
			seg("daemon.admission", s.sent, s.created),
			op,
			seg("daemon.poll_lag", s.finished, s.seen),
		},
	}
}

// shiftSpans moves a span tree's offsets by off milliseconds.
func shiftSpans(sd obs.SpanData, off float64) obs.SpanData {
	sd.StartMs += off
	kids := make([]obs.SpanData, len(sd.Children))
	for i, c := range sd.Children {
		kids[i] = shiftSpans(c, off)
	}
	sd.Children = kids
	return sd
}

// crossCheck is loadgen --scrape's check: over the measured window the
// server's settled, executed and cache-hit counter deltas equal the
// client's own sums.
func crossCheck(before, after map[string]float64, succeeded, executed, hits int) error {
	var errs []error
	for _, c := range []struct {
		series string
		client int
	}{
		{`ch_daemon_operations_settled_total{status="succeeded"}`, succeeded},
		{`ch_build_instructions_total{mode="executed"}`, executed},
		{`ch_build_cache_hits_total`, hits},
	} {
		if got := delta(before, after, c.series); got != float64(c.client) {
			errs = append(errs, fmt.Errorf("%s delta %g, client counted %d", c.series, got, c.client))
		}
	}
	return errors.Join(errs...)
}

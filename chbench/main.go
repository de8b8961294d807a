// ch-bench is the repository's end-to-end build benchmark. It drives the
// system from outside, through the entry points a user reaches — cas.Open,
// image.Store, build.BuildContext, Store.GCBacking and the ch-imaged HTTP
// API served by daemon.New/Handler — over three workloads:
//
//	cli-cold     a CI runner: each invocation builds a never-seen Dockerfile
//	             into a store held at its byte budget by the budget GC
//	cli-warm     a second process: each invocation replays one of 64 tagged
//	             images entirely from disk
//	daemon-open  a resident ch-imaged taking an open-loop request stream of
//	             warm replays, edits and cold builds
//
// Usage (from the repository root; run.py builds and runs this program):
//
//	python3 chbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1
//
// With --trace 0 the last line of standard output is one JSON object with
// the end-to-end metrics; with --trace 1 it carries the per-layer metrics
// of a traced run instead. Every output is checked; a failed check makes
// the exit status non-zero.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/obs"
)

func main() {
	if len(os.Args) == 3 && os.Args[1] == refServeArg {
		os.Exit(serveRef(os.Args[2], os.Stdin, os.Stdout))
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object on the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is one run's settings.
type config struct {
	seed    int64
	seconds time.Duration
	trace   bool
	work    string    // directory for the run's stores
	log     io.Writer // human-readable report
	ref     *refProc  // the reference job's child process
}

// outcome is what a workload run measured.
type outcome struct {
	attempted, failed int
	failures          []string // the first few failure messages
	e2e               map[string]metric
	layers            map[string]metric
	spans             []obs.SpanData // the traced run's span trees, written out at the end
}

func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.failures) < 5 {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

// workload sets up once per setup round and measures the last round.
type workload struct {
	why string
	run func(ctx context.Context, cfg config) (*outcome, error)
}

var workloads = map[string]workload{
	"cli-cold":    {"cold CI runner: execution, layer pack, cas writes and the budget GC do the work", runCLI(setupCold)},
	"cli-warm":    {"second process: cas open, blob reads, rehydrate/unpack and filter generation do the work", runCLI(setupWarm)},
	"daemon-open": {"resident service: HTTP, admission, the pool and the in-memory cache and store do the work", runDaemon},
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ch-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: cli-cold, cli-warm or daemon-open")
	seed := fs.Int64("seed", 1, "input generator seed")
	seconds := fs.Float64("seconds", 10, "length of the measured phase in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer run instead of the end-to-end one")
	work := fs.String("work", filepath.Join(".bench_build", "chbench"), "directory for the runs' stores and span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "ch-bench: usage: --workload %s --seed N --seconds S --trace 0|1\n",
			strings.Join(workloadNames(), "|"))
		return 2
	}
	dir := filepath.Join(*work, fmt.Sprintf("%s-%d", *name, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintf(stderr, "ch-bench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(dir)

	ref, err := startRef(filepath.Join(dir, "reference"))
	if err != nil {
		fmt.Fprintf(stderr, "ch-bench: %v\n", err)
		return 1
	}
	defer ref.stop()
	cfg := config{
		seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)),
		trace: *trace == 1, work: dir, log: stdout, ref: ref,
	}
	fmt.Fprintf(stdout, "ch-bench %s seed=%d seconds=%g trace=%d (%s; GOMAXPROCS=%d)\n",
		*name, *seed, *seconds, *trace, w.why, runtime.GOMAXPROCS(0))
	out, err := w.run(context.Background(), cfg)
	if err != nil {
		fmt.Fprintf(stderr, "ch-bench: %s: %v\n", *name, err)
		return 1
	}
	for _, f := range out.failures {
		fmt.Fprintf(stderr, "ch-bench: %s: check failed: %s\n", *name, f)
	}
	res := result{Correct: out.failed == 0, Attempted: out.attempted, Failed: out.failed, Metrics: out.e2e}
	if cfg.trace {
		res.Metrics = out.layers
		if err := writeSpans(*work, *name, out.spans); err != nil {
			fmt.Fprintf(stderr, "ch-bench: %v\n", err)
			return 1
		}
	}
	printMetrics(stdout, res.Metrics)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "ch-bench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	var ns []string
	for n := range workloads {
		ns = append(ns, n)
	}
	sort.Strings(ns)
	return ns
}

// printMetrics renders every metric by name with its unit.
func printMetrics(w io.Writer, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-34s %14.4f %s\n", n, ms[n].Value, ms[n].Unit)
	}
}

// writeSpans writes the traced run's spans, kept in memory until now, to
// WORK/trace-NAME.json.
func writeSpans(work, name string, spans []obs.SpanData) error {
	data, err := json.Marshal(spans)
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	p := filepath.Join(work, "trace-"+name+".json")
	if err := os.WriteFile(p, data, 0o644); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	return nil
}

// setupRounds is how many times a run sets its workload up before the
// measured phase, and again after it. setup_s is the median of all of
// them at the reference speed of the set-up phase, which a burst of
// samples of the reference job after each round measures: rounds on both
// sides of the measured phase keep one slow moment of the host from
// setting it. The last round before the measured phase is the one
// measured.
const setupRounds = 5

// setUpAndMeasure runs the set-up rounds around the measured phase, each
// in a fresh directory torn down when done, and adds setup_s to the
// outcome.
func setUpAndMeasure[T any](cfg config, setup func(dir string) (T, error), teardown func(T), measure func(T) (*outcome, error)) (*outcome, error) {
	var times []float64
	ref := hostRef{proc: cfg.ref}
	dir := func(i int) string { return filepath.Join(cfg.work, fmt.Sprintf("setup%d", i)) }
	discard := func(i int, s T) error {
		teardown(s)
		return os.RemoveAll(dir(i))
	}
	var measured T
	var out *outcome
	for i := 0; i < 2*setupRounds; i++ {
		if i == setupRounds {
			settle()
			var err error
			out, err = measure(measured)
			if derr := discard(i-1, measured); err == nil {
				err = derr
			}
			if err != nil {
				return nil, err
			}
		}
		settle()
		t0 := time.Now()
		s, err := setup(dir(i))
		times = append(times, time.Since(t0).Seconds())
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		ref.burst()
		if ref.err != nil {
			return nil, ref.err
		}
		if i == setupRounds-1 {
			measured = s
			continue
		}
		if err := discard(i, s); err != nil {
			return nil, err
		}
	}
	setupS := quantile(times, 0.5) * ref.scale()
	fmt.Fprintf(cfg.log, "  set-up rounds: %s s raw (median %.4f s); reference job mean %.4f ms, so %.4f s at reference speed\n",
		strings.Trim(fmt.Sprint(times), "[]"), quantile(times, 0.5), ref.mean(), setupS)
	if out.e2e != nil {
		out.e2e["setup_s"] = metric{setupS, "s"}
	}
	return out, nil
}

// settle collects the benchmark's garbage and flushes dirty file data
// before a timed phase, so that neither a collection nor the writeback of
// earlier rounds' files lands inside it.
func settle() {
	runtime.GC()
	syscall.Sync()
}

// heapMiB is HeapInuse after a forced GC.
func heapMiB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapInuse) / mib
}

// stationarity compares the first and second half of a run's latencies
// (in completion order), each as the workload reports build_ms_p50, and
// the store's size at start and end.
type stationarity struct {
	p50First, p50Second      float64
	bytesStart, bytesEnd     int64
	journalStart, journalEnd int64
}

func (s stationarity) drift() float64 {
	if s.p50First == 0 {
		return 0
	}
	return s.p50Second/s.p50First - 1
}

func halves(lat []float64) (float64, float64) {
	h := len(lat) / 2
	return quantile(lat[:h], 0.5), quantile(lat[h:], 0.5)
}

// report prints the guard and fails on a p50 drift beyond driftBound.
func (s stationarity) report(w io.Writer) error {
	verdict := "ok"
	d := s.drift()
	if d > driftBound || d < -driftBound {
		verdict = "DRIFT"
	}
	fmt.Fprintf(w, "  stationarity: p50 first half %.3f ms, second half %.3f ms (%+.1f%%, bound ±%.0f%%) %s\n",
		s.p50First, s.p50Second, 100*d, 100*driftBound, verdict)
	fmt.Fprintf(w, "  stationarity: store %d → %d bytes, journal %d → %d bytes\n",
		s.bytesStart, s.bytesEnd, s.journalStart, s.journalEnd)
	if verdict != "ok" {
		return fmt.Errorf("p50 moved %+.1f%% from the first half of the run to the second (bound ±%.0f%%)", 100*d, 100*driftBound)
	}
	return nil
}

// storeGuard fails when the store's size moved by more than slack (a
// share of its starting size) over the run.
func (s stationarity) storeGuard(slack float64) error {
	change := float64(s.bytesEnd-s.bytesStart) / float64(max(1, s.bytesStart))
	if change > slack || change < -slack {
		return fmt.Errorf("store went from %d to %d bytes (%+.2f%%, bound ±%.0f%%)",
			s.bytesStart, s.bytesEnd, 100*change, 100*slack)
	}
	return nil
}

// printTail prints the run's tail latency: the highest percentile with
// ten samples beyond it. It is printed, not reported in the JSON result:
// across runs on a shared 2-core host its spread exceeds the largest
// bound a gated metric may have.
func printTail(w io.Writer, v, q float64, n int) {
	fmt.Fprintf(w, "  build_ms_p99 %.4f ms (wall; p%g of %d samples)\n", v, 100*q, n)
}

// growthGuard fails when the store or its journal grew by more than
// storePerWrite or journalPerWrite bytes per request that writes (an edit
// or a cold build): growth a warm replay causes, or growth without
// bound per write, shows here.
func (s stationarity) growthGuard(writes int) error {
	store := float64(s.bytesEnd-s.bytesStart) / float64(max(1, writes))
	journal := float64(s.journalEnd-s.journalStart) / float64(max(1, writes))
	if store > storePerWrite || journal > journalPerWrite {
		return fmt.Errorf("store grew %.0f bytes and journal %.0f bytes per writing request (bounds %d and %d)",
			store, journal, storePerWrite, journalPerWrite)
	}
	return nil
}

// driftBound is the first-to-second-half p50 change beyond which a run
// fails as drifting. Within a run the host's speed alone moved the raw
// p50 by up to ±30% on a shared 2-core VM; the journal growth the guard
// exists to catch more than tripled it.
const driftBound = 0.5

// Growth bounds of the daemon's store per writing request.
const (
	storePerWrite   = 32 << 10
	journalPerWrite = 4 << 10
)

var errNoBuilds = errors.New("no build completed in the measured phase")

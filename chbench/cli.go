package main

// The two CLI workloads. Each measured invocation mirrors one
// `ch-image build --cache-dir DIR [--cache-max-bytes N]` process: open
// the persistent store (full verify, the CLI default), seed a fresh
// in-memory store with the base images, build through a persistent
// instruction cache, run the budget GC when one is set, close. Nothing
// in memory survives from one invocation to the next except what the Go
// runtime keeps; everything warm comes from disk.

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/build"
	"repro/internal/cas"
	"repro/internal/image"
	"repro/internal/obs"
	"repro/internal/pkgmgr"
	"repro/internal/tarutil"
	"repro/internal/vfs"
)

const (
	// coldBudget is the cli-cold store's --cache-max-bytes. Setup fills
	// the store past it, so every measured invocation's budget GC evicts
	// about what the build added and the store stays the same size.
	coldBudget = 3 << 19
	// coldTag is the one tag the CI runner rebuilds: a tag per build
	// would pin every build's layers and grow the store without bound.
	coldTag = "ci:latest"
	// warmImages is how many tagged images cli-warm's store holds.
	warmImages = 64
	// checkEvery is the cli-cold sample rate of the flatten check.
	checkEvery = 25
)

// invocation is what one mirrored ch-image process did.
type invocation struct {
	wall    time.Duration
	res     *build.Result
	err     error
	report  cas.Report
	journal int64 // journal bytes at open
	gc      cas.GCStats
	span    *obs.Span // root span, traced invocations only
}

// seedStore is ch-image's seededStore: a fresh in-memory store, backed
// by d, holding the world's base images.
func seedStore(w *pkgmgr.World, d *cas.Dir) (*image.Store, error) {
	s := image.NewStore()
	if d != nil {
		s.SetBacking(d)
	}
	for _, ds := range distros {
		img, err := w.BaseImage(ds.name, ds.base)
		if err != nil {
			return nil, err
		}
		s.Put(img)
	}
	return s, nil
}

// invoke runs one mirrored ch-image build process against the store at
// root. With traced set, every public call is wrapped in a span under a
// fresh trace and the build context carries it, so the engine's stage and
// instruction spans nest beneath the benchmark's.
//
// atEnd, when set, runs once the build and GC are done while the
// invocation's in-memory state is still live (the heap probe).
func invoke(ctx context.Context, root string, df Dockerfile, tag string, budget int64, traced bool, atEnd func()) (inv invocation) {
	if st, err := os.Stat(filepath.Join(root, "journal")); err == nil {
		inv.journal = st.Size()
	}
	if traced {
		ctx, inv.span = obs.NewTrace(ctx, "invocation")
	}
	t0 := time.Now()
	defer func() {
		inv.wall = time.Since(t0)
		inv.span.End()
	}()

	_, sp := obs.StartSpan(ctx, "cas.Open")
	d, rep, err := cas.Open(root)
	sp.End()
	if err != nil {
		inv.err = err
		return inv
	}
	inv.report = rep

	_, sp = obs.StartSpan(ctx, "image.seed")
	world := pkgmgr.NewWorld()
	store, err := seedStore(world, d)
	sp.End()
	if err != nil {
		d.Close()
		inv.err = err
		return inv
	}

	bctx, sp := obs.StartSpan(ctx, "build.BuildContext")
	inv.res, inv.err = build.BuildContext(bctx, df.Text, build.Options{
		Tag: tag, Force: build.ForceSeccomp, Store: store, World: world,
		Cache: build.NewPersistentCache(d), Context: df.Context, StageJobs: 1,
	})
	sp.End()

	if inv.err == nil && budget > 0 {
		gctx, sp := obs.StartSpan(ctx, "cas.GC")
		inv.gc, err = store.GCBacking(gctx, cas.Budget{MaxBytes: budget})
		sp.End()
		if err != nil {
			inv.err = fmt.Errorf("budget gc: %w", err)
		}
	}
	if inv.err == nil && inv.res.Degraded {
		inv.err = fmt.Errorf("degraded build: %v", inv.res.DegradedErrs)
	}

	if atEnd != nil {
		atEnd()
	}
	_, sp = obs.StartSpan(ctx, "cas.Close")
	if err := d.Close(); err != nil && inv.err == nil {
		inv.err = err
	}
	sp.End()
	return inv
}

// imageDigest identifies a built image by its layer chain and config.
func imageDigest(img *image.Image) string {
	cfg, _ := json.Marshal(img.Config) // a Config always marshals
	return cas.Sum([]byte(image.ChainDigest(img.Layers) + "\x00" + string(cfg)))
}

// checkFiles flattens img on a fresh store and reports the first file
// the generator wrote that is missing or differs.
func checkFiles(img *image.Image, want map[string]string) error {
	fs, err := image.NewStore().FlattenContext(context.Background(), img)
	if err != nil {
		return fmt.Errorf("flatten: %w", err)
	}
	entries, err := tarutil.Snapshot(fs)
	if err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	got := make(map[string]tarutil.Entry, len(entries))
	for _, e := range entries {
		got[e.Path] = e
	}
	for _, p := range sortedPaths(want) {
		e, ok := got[p]
		switch {
		case !ok:
			return fmt.Errorf("%s: missing from the image", p)
		case e.Stat.Type != vfs.TypeRegular:
			return fmt.Errorf("%s: not a regular file", p)
		case string(e.Data) != want[p]:
			return fmt.Errorf("%s: holds %d bytes, want %d", p, len(e.Data), len(want[p]))
		}
	}
	return nil
}

// prewarm builds Dockerfiles into the store at root through one handle,
// one shared in-memory store and one persistent cache — set-up, not a
// mirrored CLI run. next yields the i-th Dockerfile and its tag, or false
// when the store holds enough; budget > 0 runs one budget GC at the end.
// It returns each built image's digest.
func prewarm(ctx context.Context, root string, next func(i int, d *cas.Dir) (Dockerfile, string, bool), budget int64) ([]string, error) {
	d, _, err := cas.Open(root)
	if err != nil {
		return nil, err
	}
	defer d.Close()
	world := pkgmgr.NewWorld()
	store, err := seedStore(world, d)
	if err != nil {
		return nil, err
	}
	cache := build.NewPersistentCache(d)
	var digests []string
	for i := 0; ; i++ {
		df, tag, ok := next(i, d)
		if !ok {
			break
		}
		res, err := build.BuildContext(ctx, df.Text, build.Options{
			Tag: tag, Force: build.ForceSeccomp, Store: store, World: world,
			Cache: cache, Context: df.Context, StageJobs: 1,
		})
		if err != nil {
			return nil, fmt.Errorf("prewarm %d: %w", i, err)
		}
		if res.Degraded {
			return nil, fmt.Errorf("prewarm %d: degraded: %v", i, res.DegradedErrs)
		}
		digests = append(digests, imageDigest(res.Image))
	}
	if budget > 0 {
		if _, err := store.GCBacking(ctx, cas.Budget{MaxBytes: budget}); err != nil {
			return nil, err
		}
	}
	return digests, d.Close()
}

// job is one measured invocation's input and its output check.
type job struct {
	df    Dockerfile
	tag   string
	check func(invocation) error
}

// cliRun is what a CLI workload's set-up hands its measured loop.
type cliRun struct {
	root string
	// budget is the --cache-max-bytes each invocation passes (0: none).
	budget int64
	next   func(i int) job
	// storeSlack bounds the store's relative size change over the run.
	storeSlack float64
	// flatEvery > 0 flattens every flatEvery-th built image, outside the
	// timed region, and compares it with the files the generator wrote.
	flatEvery int
}

// setupCold fills a fresh store at root past coldBudget with never-seen
// Dockerfiles, then collects it down to the budget. The measured loop
// builds one more never-seen Dockerfile per invocation, every cacheable
// step of which must execute.
func setupCold(ctx context.Context, root string, seed int64) (*cliRun, error) {
	g := newGen(seed, corpus)
	fill := func(i int, d *cas.Dir) (Dockerfile, string, bool) {
		if i%8 == 0 {
			if _, bytes := d.BlobStats(); bytes >= coldBudget+coldBudget/4 {
				return Dockerfile{}, "", false
			}
		}
		return g.file(fmt.Sprintf("fill%d", i), false), coldTag, true
	}
	if _, err := prewarm(ctx, root, fill, coldBudget); err != nil {
		return nil, err
	}
	return &cliRun{root: root, budget: coldBudget, flatEvery: checkEvery, storeSlack: 0.25, next: func(i int) job {
		df := g.file(fmt.Sprintf("cold%d", i), false)
		return job{df, coldTag, func(inv invocation) error {
			if inv.res.Executed != df.Cacheable {
				return fmt.Errorf("executed %d instructions, want %d (never-seen Dockerfile)", inv.res.Executed, df.Cacheable)
			}
			return nil
		}}
	}}, nil
}

// setupWarm prewarms warmImages Dockerfiles into a fresh store at root,
// each under its own tag so the journal cannot grow. The measured loop
// replays a seeded pick of them, each of which must execute nothing and
// reproduce the image recorded at set-up.
func setupWarm(ctx context.Context, root string, seed int64) (*cliRun, error) {
	g := newGen(seed, corpus)
	dfs := make([]Dockerfile, warmImages)
	for i := range dfs {
		dfs[i] = g.file(fmt.Sprintf("warm%d", i), true)
	}
	tag := func(i int) string { return fmt.Sprintf("warm-%d:latest", i) }
	digests, err := prewarm(ctx, root, func(i int, _ *cas.Dir) (Dockerfile, string, bool) {
		if i == len(dfs) {
			return Dockerfile{}, "", false
		}
		return dfs[i], tag(i), true
	}, 0)
	if err != nil {
		return nil, err
	}
	pick := newGen(seed+1, Profile{})
	return &cliRun{root: root, next: func(int) job {
		k := pick.index("image", len(dfs))
		return job{dfs[k], tag(k), func(inv invocation) error {
			if inv.res.Executed != 0 {
				return fmt.Errorf("%s: executed %d instructions, want 0 (warm replay)", tag(k), inv.res.Executed)
			}
			if got := imageDigest(inv.res.Image); got != digests[k] {
				return fmt.Errorf("%s: image digest %s, want %s from set-up", tag(k), got, digests[k])
			}
			return nil
		}}
	}}, nil
}

// runCLI is a CLI workload: set up with setup, then run mirrored
// invocations back to back (a closed loop with one client) for
// cfg.seconds.
func runCLI(setup func(ctx context.Context, root string, seed int64) (*cliRun, error)) func(context.Context, config) (*outcome, error) {
	return func(ctx context.Context, cfg config) (*outcome, error) {
		return setUpAndMeasure(cfg, func(dir string) (*cliRun, error) {
			return setup(ctx, dir, cfg.seed)
		}, func(*cliRun) {}, func(run *cliRun) (*outcome, error) {
			return measureCLI(ctx, cfg, run)
		})
	}
}

// measureCLI runs the measured loop. In a traced run every second
// invocation is traced, so the traced and untraced latencies come from
// interleaved samples of the same inputs.
func measureCLI(ctx context.Context, cfg config, run *cliRun) (*outcome, error) {
	out := &outcome{}
	before := counters()
	var st stationarity
	blobs0, journal0 := storeBytes(run.root)
	st.bytesStart, st.journalStart = blobs0+journal0, journal0

	var walls, traced []float64 // ms, in completion order
	var sumWall float64
	var trees []obs.SpanData
	var texts []string
	var layers [][]byte
	var syscalls, faked, filtered, vns, layerBytes, journal, checked []float64
	lt := newLayerTimes()
	ref := hostRef{proc: cfg.ref}
	deadline := time.Now().Add(cfg.seconds)
	for i := 0; time.Now().Before(deadline); i++ {
		j := run.next(i)
		tr := cfg.trace && i%2 == 1
		inv := invoke(ctx, run.root, j.df, j.tag, run.budget, tr, nil)
		ref.tick()
		if !run.verify(out, i, j, inv) {
			continue
		}
		w := ms(inv.wall)
		sumWall += w
		if !tr {
			walls = append(walls, w)
		} else {
			traced = append(traced, w)
			sd := inv.span.Snapshot()
			trees = append(trees, sd)
			lt.add(sd)
			if len(texts) < maxProbeInputs {
				texts = append(texts, j.df.Text)
				layers = append(layers, builtLayers(inv.res)...)
			}
		}
		c := inv.res.Counters
		syscalls = append(syscalls, float64(c.Syscalls))
		faked = append(faked, float64(c.Faked))
		filtered = append(filtered, float64(c.Filtered))
		vns = append(vns, float64(inv.res.VirtualNanos))
		var lb int
		for _, l := range builtLayers(inv.res) {
			lb += len(l)
		}
		layerBytes = append(layerBytes, float64(lb))
		journal = append(journal, float64(inv.journal))
		checked = append(checked, float64(inv.report.BlobsChecked))
	}
	builds := len(walls) + len(traced)
	if builds == 0 {
		return nil, errNoBuilds
	}
	if ref.err != nil {
		return nil, ref.err
	}
	after := counters()
	// The heap a process holds at its end: a few more invocations, timed
	// by nobody, each reading HeapInuse after a forced GC just before it
	// closes the store.
	var heaps []float64
	for k := 0; k < heapProbes; k++ {
		i := out.attempted
		j := run.next(i)
		inv := invoke(ctx, run.root, j.df, j.tag, run.budget, false, func() { heaps = append(heaps, heapMiB()) })
		run.verify(out, i, j, inv)
	}
	heap := quantile(heaps, 0.5)
	blobs1, journal1 := storeBytes(run.root)
	st.bytesEnd, st.journalEnd = blobs1+journal1, journal1
	first, second := halves(walls)
	s1, s2 := ref.halfScales()
	st.p50First, st.p50Second = first*s1, second*s2
	if err := st.report(cfg.log); err != nil {
		out.fail("stationarity: %v", err)
	}
	if err := st.storeGuard(run.storeSlack); err != nil {
		out.fail("stationarity: %v", err)
	}

	tail := p99Tail(len(walls))
	fmt.Fprintf(cfg.log, "  %d builds (%d untraced, %d traced), %d failed\n",
		builds, len(walls), len(traced), out.failed)
	printTail(cfg.log, quantile(walls, tail), tail, len(walls))
	p50, perS := quantile(walls, 0.5), float64(builds)/(sumWall/1000)
	ref.print(cfg.log)
	fmt.Fprintf(cfg.log, "  raw: build_ms_p50 %.4f ms, builds_per_s %.4f 1/s\n", p50, perS)
	out.e2e = endToEnd(map[string]float64{
		"build_ms_p50": p50 * ref.scale(),
		"builds_per_s": perS / ref.scale(),
		"heap_mib":     heap,
		"store_mib":    float64(st.bytesEnd) / mib,
	})
	fmt.Fprintf(cfg.log, "  failed_ratio %.4f ratio (%d of %d)\n", float64(out.failed)/float64(out.attempted), out.failed, out.attempted)
	if !cfg.trace {
		return out, nil
	}
	perBuild := func(k string) float64 { return delta(before, after, k) / float64(builds) }
	root := ""
	if perBuild("ch_image_flatten_rehydrates_total") > 0 {
		root = run.root
	}
	p, err := runProbes(ctx, texts, layers, root)
	if err != nil {
		return nil, err
	}
	hits, misses := delta(before, after, "ch_build_cache_hits_total"), delta(before, after, "ch_build_cache_misses_total")
	hitRatio := 0.0
	if hits+misses > 0 {
		hitRatio = hits / (hits + misses)
	}
	executed := perBuild(`ch_build_instructions_total{mode="executed"}`)
	replayed := perBuild(`ch_build_instructions_total{mode="replayed"}`)
	if executed == 0 {
		p.packUs = 0 // nothing was packed in this run
	}
	if replayed == 0 && root == "" {
		p.unpackUs = 0 // nothing was unpacked in this run
	}
	lt.print(cfg.log)
	out.spans = trees
	out.layers = layerMetrics(map[string]float64{
		"cas.open_ms":                     lt.median("cas.open"),
		"cas.open_journal_bytes":          quantile(journal, 0.5),
		"cas.open_blobs_checked":          quantile(checked, 0.5),
		"cas.gc_ms":                       lt.median("cas.gc"),
		"cas.gc_swept_bytes_per_build":    perBuild("ch_cas_gc_swept_bytes_total"),
		"cas.blob_write_bytes_per_build":  perBuild("ch_cas_blob_write_bytes_total"),
		"cas.journal_appends_per_build":   perBuild("ch_cas_journal_appends_total"),
		"cas.blob_read_bytes_per_build":   perBuild("ch_cas_blob_read_bytes_total"),
		"cas.flock_wait_ms":               1000 * perBuild("ch_cas_flock_wait_seconds_sum"),
		"cas.retries":                     delta(before, after, "ch_cas_retries_total"),
		"image.seed_ms":                   lt.median("image.seed"),
		"image.flatten_fills_per_build":   perBuild("ch_image_flatten_fills_total"),
		"image.rehydrates_per_build":      perBuild("ch_image_flatten_rehydrates_total"),
		"image.rehydrate_ms":              p.rehydrateMs,
		"tarutil.pack_us_per_layer":       p.packUs,
		"tarutil.unpack_us_per_layer":     p.unpackUs,
		"tarutil.layer_bytes_per_build":   mean(layerBytes),
		"build.build_ms_self":             lt.medianPerTree("build.self"),
		"build.stage_ms_self":             lt.medianPerTree("build.stage_self"),
		"build.executed_per_build":        executed,
		"build.replayed_per_build":        replayed,
		"build.cache_hit_ratio":           hitRatio,
		"build.instr_ms_hit":              lt.median("build.instr_hit"),
		"build.instr_ms_miss":             lt.median("build.instr_miss"),
		"core.generate_us":                p.generateUs,
		"core.filter_insns":               float64(p.filterInsns),
		"dockerfile.parse_us":             p.parseUs,
		"simos.syscalls_per_build":        mean(syscalls),
		"rootemu.faked_per_build":         mean(faked),
		"rootemu.filtered_per_build":      mean(filtered),
		"rootemu.vns_per_build":           mean(vns),
		"obs.trace_overhead_ratio":        quantile(traced, 0.5) / quantile(walls, 0.5),
		"trace.coverage_ratio":            quantile(lt.coverage, 0.5),
		"stationarity.p50_drift_ratio":    st.drift(),
		"stationarity.store_growth_bytes": float64(st.bytesEnd - st.bytesStart),
		"host.ref_ms":                     ref.mean(),
		"host.build_ms_p50_raw":           p50,
	})
	return out, nil
}

// heapProbes is how many untimed invocations measure the end-of-process
// heap; heap_mib is their median.
const heapProbes = 15

// verify runs invocation i's output checks, counting it as attempted and,
// on a failed check, as failed.
func (run *cliRun) verify(out *outcome, i int, j job, inv invocation) bool {
	out.attempted++
	err := inv.err
	if err == nil {
		err = j.check(inv)
	}
	if err == nil && run.flatEvery > 0 && i%run.flatEvery == 0 {
		err = checkFiles(inv.res.Image, j.df.Files)
	}
	if err != nil {
		out.fail("invocation %d (%s): %v", i, j.tag, err)
		return false
	}
	return true
}

// baseLayer holds the digests of the base images' layers.
var baseLayer = func() map[string]bool {
	m := map[string]bool{}
	w := pkgmgr.NewWorld()
	for _, ds := range distros {
		if img, err := w.BaseImage(ds.name, ds.base); err == nil {
			for _, l := range img.Layers {
				m[l.Digest] = true
			}
		}
	}
	return m
}()

// builtLayers returns the layers a build added on top of its base image.
func builtLayers(res *build.Result) [][]byte {
	var ls [][]byte
	for _, l := range res.Image.Layers {
		if !baseLayer[l.Digest] {
			ls = append(ls, l.Data)
		}
	}
	return ls
}

package build

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cas"
	"repro/internal/image"
	"repro/internal/pkgmgr"
)

// persistFixtures simulates one process's view of a shared --cache-dir:
// a fresh world, a fresh store backed by the cas directory (attached
// before seeding, so base-image blobs persist), and a fresh persistent
// instruction cache rehydrated from the directory's journal.
func persistFixtures(t *testing.T, root string) (*pkgmgr.World, *image.Store, *Cache, *cas.Dir) {
	t.Helper()
	d, _, err := cas.Open(root)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	w := pkgmgr.NewWorld()
	s := image.NewStore()
	s.SetBacking(d)
	for _, db := range []struct{ distro, name string }{
		{pkgmgr.DistroAlpine, "alpine:3.19"},
		{pkgmgr.DistroCentOS7, "centos:7"},
		{pkgmgr.DistroDebian, "debian:12"},
	} {
		img, err := w.BaseImage(db.distro, db.name)
		if err != nil {
			t.Fatal(err)
		}
		s.Put(img)
	}
	return w, s, NewPersistentCache(d), d
}

// Base images must serialise to identical bytes in every process — the
// root of every cross-invocation cache key.
func TestBaseImageDeterministic(t *testing.T) {
	for _, db := range []struct{ distro, name string }{
		{pkgmgr.DistroAlpine, "alpine:3.19"},
		{pkgmgr.DistroCentOS7, "centos:7"},
		{pkgmgr.DistroDebian, "debian:12"},
	} {
		a, err := pkgmgr.NewWorld().BaseImage(db.distro, db.name)
		if err != nil {
			t.Fatal(err)
		}
		b, err := pkgmgr.NewWorld().BaseImage(db.distro, db.name)
		if err != nil {
			t.Fatal(err)
		}
		if image.ChainDigest(a.Layers) != image.ChainDigest(b.Layers) {
			t.Errorf("%s: base image bytes differ between worlds", db.name)
		}
	}
}

// The acceptance path: two separate invocations (completely fresh worlds,
// stores and caches) against one cache dir. The second runs fully warm —
// every instruction a cache hit, nothing executed, zero flatten fills.
func TestWarmAcrossProcesses(t *testing.T) {
	root := t.TempDir()
	const text = "FROM centos:7\nRUN yum install -y openssh\nRUN mkdir -p /opt && echo art > /opt/bin\n"

	w1, s1, c1, _ := persistFixtures(t, root)
	res1, err := BuildContext(context.Background(), text, Options{Tag: "app:1", Force: ForceSeccomp, Store: s1, World: w1, Cache: c1})
	if err != nil {
		t.Fatal(err)
	}
	if res1.Executed != 2 || res1.CacheHits != 0 {
		t.Fatalf("cold: executed=%d hits=%d", res1.Executed, res1.CacheHits)
	}
	if err := errors.Join(c1.PersistErrs()...); err != nil {
		t.Fatal(err)
	}
	if err := errors.Join(s1.BackingErrs()...); err != nil {
		t.Fatal(err)
	}

	w2, s2, c2, _ := persistFixtures(t, root)
	res2, err := BuildContext(context.Background(), text, Options{Tag: "app:1", Force: ForceSeccomp, Store: s2, World: w2, Cache: c2})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Executed != 0 || res2.CacheHits != 2 {
		t.Fatalf("warm: executed=%d hits=%d, want 0/2", res2.Executed, res2.CacheHits)
	}
	if fills := s2.FlattenFills(); fills != 0 {
		t.Fatalf("warm process paid %d flatten fills, want 0", fills)
	}
	if s2.Rehydrates() != 1 {
		t.Fatalf("rehydrates=%d, want 1", s2.Rehydrates())
	}
	// Same result bytes both ways.
	if image.ChainDigest(res1.Image.Layers) != image.ChainDigest(res2.Image.Layers) {
		t.Fatal("warm rebuild produced different layers")
	}
}

// Editing the Dockerfile between invocations invalidates from the edit
// point: the prefix stays warm, the suffix re-executes.
func TestEditInvalidatesSuffixAcrossProcesses(t *testing.T) {
	root := t.TempDir()
	w1, s1, c1, _ := persistFixtures(t, root)
	if _, err := BuildContext(context.Background(), "FROM centos:7\nRUN yum install -y openssh\nRUN echo one > /v1\n",
		Options{Tag: "app:1", Force: ForceSeccomp, Store: s1, World: w1, Cache: c1}); err != nil {
		t.Fatal(err)
	}

	w2, s2, c2, _ := persistFixtures(t, root)
	res, err := BuildContext(context.Background(), "FROM centos:7\nRUN yum install -y openssh\nRUN echo two > /v2\n",
		Options{Tag: "app:2", Force: ForceSeccomp, Store: s2, World: w2, Cache: c2})
	if err != nil {
		t.Fatal(err)
	}
	if res.CacheHits != 1 || res.Executed != 1 {
		t.Fatalf("hits=%d executed=%d, want 1/1 (warm prefix, re-run suffix)", res.CacheHits, res.Executed)
	}
}

// A multi-stage build — stage scheduling, COPY --from, chain-digest keys —
// replays fully warm in a second process.
func TestMultiStageWarmAcrossProcesses(t *testing.T) {
	root := t.TempDir()
	const text = `FROM centos:7 AS build
RUN yum install -y openssh
RUN mkdir -p /opt && echo solver > /opt/solver

FROM alpine:3.19
COPY --from=build /opt/solver /app/solver
`
	w1, s1, c1, _ := persistFixtures(t, root)
	res1, err := BuildContext(context.Background(), text, Options{Tag: "slim:1", Force: ForceSeccomp, Store: s1, World: w1, Cache: c1, StageJobs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res1.Executed == 0 {
		t.Fatal("cold multi-stage executed nothing")
	}

	w2, s2, c2, _ := persistFixtures(t, root)
	res2, err := BuildContext(context.Background(), text, Options{Tag: "slim:1", Force: ForceSeccomp, Store: s2, World: w2, Cache: c2, StageJobs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Executed != 0 || res2.CacheHits != res1.Executed {
		t.Fatalf("warm: executed=%d hits=%d (cold executed %d)", res2.Executed, res2.CacheHits, res1.Executed)
	}
	if res2.StagesBuilt != 2 {
		t.Fatalf("stages=%d", res2.StagesBuilt)
	}
	if image.ChainDigest(res1.Image.Layers) != image.ChainDigest(res2.Image.Layers) {
		t.Fatal("warm rebuild produced different layers")
	}
}

// The corruption acceptance criterion: a blob truncated between
// invocations is quarantined at open, and the next build succeeds by
// re-executing only the steps that lost their layers.
func TestCorruptBlobReExecutesOnlyAffectedSteps(t *testing.T) {
	root := t.TempDir()
	const text = "FROM centos:7\nRUN yum install -y openssh\nRUN mkdir -p /opt && echo art > /opt/bin\n"
	w1, s1, c1, d1 := persistFixtures(t, root)
	if _, err := BuildContext(context.Background(), text, Options{Tag: "app:1", Force: ForceSeccomp, Store: s1, World: w1, Cache: c1}); err != nil {
		t.Fatal(err)
	}

	// Truncate the layer blob of the second RUN (the echo step), located
	// through the journal: it is the step layer containing "/opt/bin".
	var victim string
	for _, st := range d1.Steps() {
		if st.Layer == "" {
			continue
		}
		data, err := d1.Blob(context.Background(), st.Layer)
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(string(data), "opt/bin") {
			victim = st.Layer
		}
	}
	if victim == "" {
		t.Fatal("echo step's layer not found in journal")
	}
	hexpart := strings.TrimPrefix(victim, "sha256:")
	p := filepath.Join(root, "blobs", "sha256", hexpart[:2], hexpart[2:])
	data, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(p, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	w2, s2, c2, d2 := persistFixtures(t, root)
	if rep := d2.Report(); rep.BlobsQuarantined != 1 {
		t.Fatalf("corruption not quarantined at open: %+v", rep)
	}
	res, err := BuildContext(context.Background(), text, Options{Tag: "app:1", Force: ForceSeccomp, Store: s2, World: w2, Cache: c2})
	if err != nil {
		t.Fatal(err)
	}
	if res.CacheHits != 1 || res.Executed != 1 {
		t.Fatalf("hits=%d executed=%d, want 1 warm + 1 re-executed", res.CacheHits, res.Executed)
	}
	// The store healed: a third process runs fully warm again.
	w3, s3, c3, _ := persistFixtures(t, root)
	res3, err := BuildContext(context.Background(), text, Options{Tag: "app:1", Force: ForceSeccomp, Store: s3, World: w3, Cache: c3})
	if err != nil {
		t.Fatal(err)
	}
	if res3.Executed != 0 || res3.CacheHits != 2 {
		t.Fatalf("healed store: executed=%d hits=%d", res3.Executed, res3.CacheHits)
	}
}

// A torn journal tail (crash mid-append) costs at most the torn record:
// the next invocation quarantines the fragment and replays the rest.
func TestTornJournalWarmRecovery(t *testing.T) {
	root := t.TempDir()
	const text = "FROM alpine:3.19\nRUN apk add sl\n"
	w1, s1, c1, _ := persistFixtures(t, root)
	if _, err := BuildContext(context.Background(), text, Options{Tag: "app:1", Force: ForceSeccomp, Store: s1, World: w1, Cache: c1}); err != nil {
		t.Fatal(err)
	}
	j := filepath.Join(root, "journal")
	f, err := os.OpenFile(j, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprint(f, `0000 {"t":"step","key":"torn`)
	f.Close()

	w2, s2, c2, d2 := persistFixtures(t, root)
	if rep := d2.Report(); rep.JournalQuarantined != 1 {
		t.Fatalf("torn tail not quarantined: %+v", rep)
	}
	res, err := BuildContext(context.Background(), text, Options{Tag: "app:1", Force: ForceSeccomp, Store: s2, World: w2, Cache: c2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Executed != 0 || res.CacheHits != 1 {
		t.Fatalf("executed=%d hits=%d after torn-tail recovery", res.Executed, res.CacheHits)
	}
}

// Options.CacheDir is the one-call wiring: Build opens the store, backs
// the image store and creates the persistent cache itself.
func TestOptionsCacheDir(t *testing.T) {
	root := filepath.Join(t.TempDir(), "cas")
	const text = "FROM alpine:3.19\nRUN apk add sl\n"
	run := func() *Result {
		w, s := fixturesBacked(t, root)
		res, err := BuildContext(context.Background(), text, Options{Tag: "app:1", Force: ForceSeccomp, Store: s, World: w, CacheDir: root})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if res := run(); res.Executed != 1 {
		t.Fatalf("cold: executed=%d", res.Executed)
	}
	if res := run(); res.Executed != 0 || res.CacheHits != 1 {
		t.Fatalf("warm: executed=%d hits=%d", res.Executed, res.CacheHits)
	}
}

// fixturesBacked seeds a store whose backing Build will attach via
// Options.CacheDir — seeding must come after the backing attach to
// persist base blobs, so it opens the same dir itself first.
func fixturesBacked(t *testing.T, root string) (*pkgmgr.World, *image.Store) {
	t.Helper()
	d, _, err := cas.Open(root)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	w := pkgmgr.NewWorld()
	s := image.NewStore()
	s.SetBacking(d)
	img, err := w.BaseImage(pkgmgr.DistroAlpine, "alpine:3.19")
	if err != nil {
		t.Fatal(err)
	}
	s.Put(img)
	return w, s
}

// Options.CacheDir pointing at a regular file is a build error, not a
// panic or a silent in-memory fallback.
func TestOptionsCacheDirOnFileFails(t *testing.T) {
	f := filepath.Join(t.TempDir(), "afile")
	if err := os.WriteFile(f, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	w, s := fixtures(t)
	_, err := BuildContext(context.Background(), "FROM alpine:3.19\nRUN apk add sl\n",
		Options{Tag: "x", Store: s, World: w, CacheDir: f})
	if err == nil || !strings.Contains(err.Error(), "not a directory") {
		t.Fatalf("err=%v", err)
	}
}

// A pool of builders sharing one persistent cache must be race-clean and
// leave a store the next process can fully warm from. Run with -race.
func TestPoolWithPersistentCache(t *testing.T) {
	root := t.TempDir()
	const text = "FROM centos:7\nRUN yum install -y openssh\n"
	w1, s1, c1, _ := persistFixtures(t, root)
	jobs := make([]Job, 8)
	for i := range jobs {
		jobs[i] = Job{
			Name:       fmt.Sprintf("job%d", i),
			Dockerfile: text,
			Options: Options{
				Tag: fmt.Sprintf("pool:%d", i), Force: ForceSeccomp,
				Store: s1, World: w1, Cache: c1,
			},
		}
	}
	if _, err := (&Pool{Workers: 4}).RunContext(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
	if err := errors.Join(c1.PersistErrs()...); err != nil {
		t.Fatal(err)
	}

	w2, s2, c2, _ := persistFixtures(t, root)
	res, err := BuildContext(context.Background(), text, Options{Tag: "pool:9", Force: ForceSeccomp, Store: s2, World: w2, Cache: c2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Executed != 0 || res.CacheHits != 1 {
		t.Fatalf("after pooled process: executed=%d hits=%d", res.Executed, res.CacheHits)
	}
}

// Build with Options.CacheDir must restore the caller's own backing when
// it returns, not detach it: later Puts keep persisting.
func TestOptionsCacheDirRestoresCallerBacking(t *testing.T) {
	root := filepath.Join(t.TempDir(), "cas")
	w, s := fixturesBacked(t, root) // attaches the caller's backing
	prev := s.Backing()
	if _, err := BuildContext(context.Background(), "FROM alpine:3.19\nRUN apk add sl\n",
		Options{Tag: "app:1", Force: ForceSeccomp, Store: s, World: w, CacheDir: root}); err != nil {
		t.Fatal(err)
	}
	if s.Backing() != prev {
		t.Fatal("caller's backing not restored after Build")
	}
	// The restored backing still works: a post-Build Put persists.
	img, _ := s.GetContext(context.Background(), "app:1")
	late := img.Clone("late:1")
	s.Put(late)
	if err := errors.Join(s.BackingErrs()...); err != nil {
		t.Fatal(err)
	}
	w2, s2 := fixturesBacked(t, root)
	_ = w2
	if _, ok := s2.GetContext(context.Background(), "late:1"); !ok {
		t.Fatal("post-Build Put through restored backing lost")
	}
}

// Options.CacheVerify=lazy must warm exactly like the default full-verify
// open — the mode changes when corruption is discovered, never what a
// healthy store replays.
func TestOptionsCacheVerifyLazyWarms(t *testing.T) {
	root := filepath.Join(t.TempDir(), "cas")
	const text = "FROM alpine:3.19\nRUN apk add sl\n"
	run := func() *Result {
		w, s := fixturesBacked(t, root)
		res, err := BuildContext(context.Background(), text, Options{
			Tag: "app:1", Force: ForceSeccomp, Store: s, World: w,
			CacheDir: root, CacheVerify: cas.VerifyLazy,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if res := run(); res.Executed != 1 {
		t.Fatalf("cold: executed=%d", res.Executed)
	}
	if res := run(); res.Executed != 0 || res.CacheHits != 1 {
		t.Fatalf("warm: executed=%d hits=%d", res.Executed, res.CacheHits)
	}
}

// Options.CacheMaxBytes runs the budgeted GC after the build, on the
// handle Build itself opened: tag pins survive an impossible budget, the
// GC failure mode is a colder cache rather than a failed build, and the
// next build still loads the tagged image.
func TestOptionsCacheMaxBytesBudgetsAfterBuild(t *testing.T) {
	root := filepath.Join(t.TempDir(), "cas")
	const text = "FROM alpine:3.19\nRUN apk add sl\n"
	// Seed through our own handle, then close it: Build's handle must be
	// the sole opener or the deferred GC would wait on our shared lock.
	seed := func() (*pkgmgr.World, *image.Store) {
		d, _, err := cas.Open(root)
		if err != nil {
			t.Fatal(err)
		}
		w := pkgmgr.NewWorld()
		s := image.NewStore()
		s.SetBacking(d)
		img, err := w.BaseImage(pkgmgr.DistroAlpine, "alpine:3.19")
		if err != nil {
			t.Fatal(err)
		}
		s.Put(img)
		s.SetBacking(nil)
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
		return w, s
	}
	w, s := seed()
	if _, err := BuildContext(context.Background(), text, Options{
		Tag: "app:1", Force: ForceSeccomp, Store: s, World: w,
		CacheDir: root, CacheMaxBytes: 1,
	}); err != nil {
		t.Fatal(err)
	}
	if err := errors.Join(s.BackingErrs()...); err != nil {
		t.Fatalf("budgeted GC recorded an error: %v", err)
	}

	// The impossible budget evicted every unpinned entry but not the
	// tag's layers: a fresh process still loads app:1 whole.
	d, _, err := cas.Open(root)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	tg, ok := d.Tag("app:1")
	if !ok {
		t.Fatal("tag evicted by budgeted GC")
	}
	for _, l := range tg.Layers {
		if !d.HasBlob(l) {
			t.Fatalf("pinned layer %s evicted", l)
		}
	}
	// Steps may survive only when evicting them would free nothing: their
	// layer is one of the tag's pinned layers (the RUN step's layer IS the
	// image's top layer here) or they recorded no layer at all.
	pinned := map[string]bool{}
	for _, l := range tg.Layers {
		pinned[l] = true
	}
	for _, st := range d.Steps() {
		if st.Layer != "" && !pinned[st.Layer] {
			t.Fatalf("step %q with unpinned layer survived an impossible budget", st.Key)
		}
	}
}

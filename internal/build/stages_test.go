package build

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/errno"
	"repro/internal/image"
	"repro/internal/simos"
	"repro/internal/vfs"
)

// Multi-stage builds: the stage DAG scheduled on the pool, COPY --from
// materialisation, pruning, and cache correctness across stage edits.

const builderPattern = `FROM centos:7 AS build
RUN yum install -y openssh
RUN mkdir -p /opt/out && echo artifact-v1 > /opt/out/bin && chmod 755 /opt/out/bin
RUN echo conf > /opt/out/app.conf

FROM alpine:3.19 AS debug
RUN apk add sl

FROM alpine:3.19
COPY --from=build /opt/out /app
CMD ["/app/bin"]
`

func readImageFile(t *testing.T, img *image.Image, path string) ([]byte, vfs.Stat) {
	t.Helper()
	fs, err := img.Flatten()
	if err != nil {
		t.Fatal(err)
	}
	rc := vfs.RootContext()
	data, e := fs.ReadFile(rc, path)
	if e != errno.OK {
		t.Fatalf("read %s from %s: %s", path, img.Name, e.Message())
	}
	st, _ := fs.Stat(rc, path, true)
	return data, st
}

func TestMultiStageBuilderPattern(t *testing.T) {
	w, s := fixtures(t)
	res, tr := mustBuild(t, builderPattern, Options{
		Tag: "slim:1", Force: ForceSeccomp, Store: s, World: w,
	})
	if res.StagesBuilt != 2 || res.StagesSkipped != 1 {
		t.Fatalf("stages built=%d skipped=%d, want 2/1", res.StagesBuilt, res.StagesSkipped)
	}
	if !strings.Contains(tr, "skipped, not referenced") {
		t.Fatalf("transcript missing prune report:\n%s", tr)
	}
	got, ok := s.GetContext(context.Background(), "slim:1")
	if !ok {
		t.Fatal("final image not tagged")
	}
	data, st := readImageFile(t, got, "/app/bin")
	if string(data) != "artifact-v1\n" {
		t.Fatalf("/app/bin = %q", data)
	}
	if st.Mode != 0o755 {
		t.Fatalf("/app/bin mode = %o, want 755", st.Mode)
	}
	// Slim: the runtime image is alpine's layers plus exactly one COPY
	// layer — none of the build stage's yum payload rides along.
	base, _ := s.GetContext(context.Background(), "alpine:3.19")
	if len(got.Layers) != len(base.Layers)+1 {
		t.Fatalf("layers: %d, want base+1 = %d", len(got.Layers), len(base.Layers)+1)
	}
	fs, err := got.Flatten()
	if err != nil {
		t.Fatal(err)
	}
	if fs.Exists(vfs.RootContext(), "/etc/centos-release") {
		t.Fatal("build stage rootfs leaked into the runtime stage")
	}
	// Intermediate stages are never tagged.
	for _, tag := range s.Tags() {
		if strings.HasPrefix(tag, "stage-") {
			t.Fatalf("intermediate stage tagged into the store: %s", tag)
		}
	}
}

// The acceptance bar: COPY --from contents are byte-identical to the
// source stage's flattened tree.
func TestMultiStageCopyFromBytesIdentical(t *testing.T) {
	w, s := fixtures(t)
	// Build the source stage alone to obtain its flattened tree.
	stageOnly := "FROM centos:7\n" + strings.Join(strings.Split(builderPattern, "\n")[1:4], "\n") + "\n"
	srcRes, _ := mustBuild(t, stageOnly, Options{Tag: "src:1", Force: ForceSeccomp, Store: s, World: w})
	res, _ := mustBuild(t, builderPattern, Options{Tag: "slim:2", Force: ForceSeccomp, Store: s, World: w})

	srcFS, err := srcRes.Image.Flatten()
	if err != nil {
		t.Fatal(err)
	}
	dstFS, err := res.Image.Flatten()
	if err != nil {
		t.Fatal(err)
	}
	rc := vfs.RootContext()
	for _, f := range []string{"bin", "app.conf"} {
		want, e := srcFS.ReadFile(rc, "/opt/out/"+f)
		if e != errno.OK {
			t.Fatalf("source %s: %s", f, e.Message())
		}
		got, e := dstFS.ReadFile(rc, "/app/"+f)
		if e != errno.OK {
			t.Fatalf("dest %s: %s", f, e.Message())
		}
		if string(got) != string(want) {
			t.Fatalf("%s: got %q want %q", f, got, want)
		}
		ws, _ := srcFS.Stat(rc, "/opt/out/"+f, true)
		gs, _ := dstFS.Stat(rc, "/app/"+f, true)
		if ws.Mode != gs.Mode {
			t.Fatalf("%s: mode %o want %o", f, gs.Mode, ws.Mode)
		}
	}
}

// A freshly created destination directory takes the source directory's
// mode (an existing destination keeps its own).
func TestMultiStageCopyFromDirModePreserved(t *testing.T) {
	w, s := fixtures(t)
	text := `FROM alpine:3.19 AS a
RUN mkdir -p /secret && echo k > /secret/key && chmod 700 /secret
FROM alpine:3.19
COPY --from=a /secret /copied
`
	res, _ := mustBuild(t, text, Options{Tag: "mode:1", Store: s, World: w})
	fs, err := res.Image.Flatten()
	if err != nil {
		t.Fatal(err)
	}
	st, e := fs.Stat(vfs.RootContext(), "/copied", true)
	if e != errno.OK {
		t.Fatalf("/copied: %s", e.Message())
	}
	if st.Mode != 0o700 {
		t.Fatalf("/copied mode = %o, want 700", st.Mode)
	}
}

func TestMultiStageCopyFromByIndexAndExternal(t *testing.T) {
	w, s := fixtures(t)
	text := `FROM alpine:3.19 AS a
RUN echo one > /one
FROM alpine:3.19
COPY --from=0 /one /got-one
COPY --from=centos:7 /etc/centos-release /rel
`
	res, _ := mustBuild(t, text, Options{Tag: "mix:1", Store: s, World: w})
	if data, _ := readImageFile(t, res.Image, "/got-one"); string(data) != "one\n" {
		t.Fatalf("/got-one = %q", data)
	}
	data, _ := readImageFile(t, res.Image, "/rel")
	if !strings.Contains(string(data), "CentOS Linux release") {
		t.Fatalf("/rel = %q", data)
	}
}

func TestMultiStageFromStageChain(t *testing.T) {
	w, s := fixtures(t)
	text := `FROM alpine:3.19 AS base
RUN echo 1 > /one
FROM base AS mid
RUN echo 2 > /two
FROM mid
RUN echo 3 > /three
`
	res, _ := mustBuild(t, text, Options{Tag: "chain:1", Store: s, World: w})
	if res.StagesBuilt != 3 {
		t.Fatalf("stages built: %d", res.StagesBuilt)
	}
	for _, p := range []string{"/one", "/two", "/three"} {
		if data, _ := readImageFile(t, res.Image, p); len(data) == 0 {
			t.Fatalf("%s missing", p)
		}
	}
}

// A pruned stage is not built at all: its instructions would fail under
// this Force mode, so the build only succeeds if the stage never runs.
func TestMultiStagePrunedStageNeverExecutes(t *testing.T) {
	w, s := fixtures(t)
	text := `FROM alpine:3.19 AS good
RUN echo ok > /ok
FROM centos:7 AS bad
RUN yum install -y openssh
FROM alpine:3.19
COPY --from=good /ok /ok
`
	// yum under ForceNone fails (Fig. 1b); apk and COPY do not.
	res, _ := mustBuild(t, text, Options{Tag: "pruned:1", Force: ForceNone, Store: s, World: w})
	if res.StagesBuilt != 2 || res.StagesSkipped != 1 {
		t.Fatalf("built=%d skipped=%d", res.StagesBuilt, res.StagesSkipped)
	}
}

func TestMultiStageStageFailurePropagates(t *testing.T) {
	w, s := fixtures(t)
	text := `FROM centos:7 AS build
RUN yum install -y openssh
FROM alpine:3.19
COPY --from=build /etc/centos-release /rel
`
	res, _, err := mustFail(t, text, Options{Force: ForceNone, Store: s, World: w})
	if !strings.Contains(err.Error(), "stage 1 (build)") {
		t.Fatalf("error does not name the failing stage: %v", err)
	}
	// The dependent final stage never ran.
	if res.StagesBuilt != 0 {
		t.Fatalf("stages recorded as built after dependency failure: %d", res.StagesBuilt)
	}
}

func TestMultiStageCopyFromMissingPath(t *testing.T) {
	w, s := fixtures(t)
	text := "FROM alpine:3.19 AS a\nRUN true\nFROM alpine:3.19\nCOPY --from=a /nope /x\n"
	_, _, err := mustFail(t, text, Options{Store: s, World: w})
	if !strings.Contains(err.Error(), "not found in source image") {
		t.Fatalf("err = %v", err)
	}
}

func TestMultiStageWarmRebuildFullyCached(t *testing.T) {
	w, s := fixtures(t)
	cache := NewCache()
	opt := Options{Tag: "warm:1", Force: ForceSeccomp, Store: s, World: w, Cache: cache}
	first, _ := mustBuild(t, builderPattern, opt)
	if first.CacheHits != 0 {
		t.Fatalf("cold build reported %d hits", first.CacheHits)
	}
	second, _ := mustBuild(t, builderPattern, opt)
	// Every cacheable step of both built stages replays: 3 RUNs in the
	// build stage, 1 COPY --from in the final stage.
	if second.CacheHits != 4 {
		t.Fatalf("warm hits = %d, want 4", second.CacheHits)
	}
	if image.ChainDigest(second.Image.Layers) != image.ChainDigest(first.Image.Layers) {
		t.Fatal("warm rebuild produced a different layer chain")
	}
}

// Editing an earlier stage must invalidate the dependent stage's COPY
// --from replay even though the final stage's own text is unchanged — the
// instruction key folds in the source stage's chain digest.
func TestMultiStageEditEarlierStageInvalidatesCopyFrom(t *testing.T) {
	w, s := fixtures(t)
	cache := NewCache()
	opt := Options{Tag: "edit:1", Force: ForceSeccomp, Store: s, World: w, Cache: cache}
	mustBuild(t, builderPattern, opt)
	edited := strings.ReplaceAll(builderPattern, "artifact-v1", "artifact-v2")
	res, _ := mustBuild(t, edited, opt)
	if data, _ := readImageFile(t, res.Image, "/app/bin"); string(data) != "artifact-v2\n" {
		t.Fatalf("stale COPY --from replay: /app/bin = %q", data)
	}
}

// Independent stages must actually overlap in time: each stage's marker
// write blocks (in the shared tracer) until the other stage has reached
// its own marker, so a serialised schedule times out instead of passing.
func TestMultiStageIndependentStagesRunConcurrently(t *testing.T) {
	w, s := fixtures(t)
	text := `FROM alpine:3.19 AS a
RUN echo a > /marker-a
FROM alpine:3.19 AS b
RUN echo b > /marker-b
FROM alpine:3.19
COPY --from=a /marker-a /ma
COPY --from=b /marker-b /mb
`
	seenA := make(chan struct{})
	seenB := make(chan struct{})
	var onceA, onceB sync.Once
	var failed sync.Once
	await := func(other <-chan struct{}) {
		select {
		case <-other:
		case <-time.After(10 * time.Second):
			failed.Do(func() { t.Error("independent stages did not overlap") })
		}
	}
	tracer := func(ev simos.TraceEvent) {
		switch {
		case strings.Contains(ev.Detail, "marker-a"):
			onceA.Do(func() { close(seenA) })
			await(seenB)
		case strings.Contains(ev.Detail, "marker-b"):
			onceB.Do(func() { close(seenB) })
			await(seenA)
		}
	}
	res, _ := mustBuild(t, text, Options{
		Tag: "conc:1", Store: s, World: w, Tracer: tracer, StageJobs: 2,
	})
	if res.StagesBuilt != 3 {
		t.Fatalf("stages built: %d", res.StagesBuilt)
	}
}

// StageJobs=1 serialises the waves without deadlocking or changing the
// result.
func TestMultiStageSerialStageJobs(t *testing.T) {
	w, s := fixtures(t)
	res, _ := mustBuild(t, builderPattern, Options{
		Tag: "serial:1", Force: ForceSeccomp, Store: s, World: w, StageJobs: 1,
	})
	if data, _ := readImageFile(t, res.Image, "/app/bin"); string(data) != "artifact-v1\n" {
		t.Fatalf("/app/bin = %q", data)
	}
}

// Multi-stage builds riding the outer Pool (ch-image -t a,b --jobs N):
// nested pools over one shared store and cache stay correct and count one
// execution per distinct step.
func TestMultiStagePooledMultiTag(t *testing.T) {
	w, s := fixtures(t)
	cache := NewCache()
	jobs := make([]Job, 3)
	for i, tag := range []string{"p:1", "p:2", "p:3"} {
		jobs[i] = Job{
			Dockerfile: builderPattern,
			Options: Options{
				Tag: tag, Force: ForceSeccomp, Store: s, World: w, Cache: cache,
			},
		}
	}
	results, err := (&Pool{Workers: 3}).RunContext(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	totalHits := 0
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.Name, r.Err)
		}
		if data, _ := readImageFile(t, r.Result.Image, "/app/bin"); string(data) != "artifact-v1\n" {
			t.Fatalf("%s: /app/bin = %q", r.Name, data)
		}
		totalHits += r.Result.CacheHits
	}
	hits, misses := cache.Stats()
	if misses != 4 {
		t.Fatalf("distinct steps executed: %d, want 4", misses)
	}
	if hits != totalHits {
		t.Fatalf("cache accounting: stats hits=%d, sum of results=%d", hits, totalHits)
	}
}

// A parseable but FROM-less Dockerfile (ARG only) is a clean error, not a
// panic, through both routes: the single-stage path and the stage pipeline
// a TargetStage forces.
func TestBuildArgOnlyDockerfile(t *testing.T) {
	for name, opt := range map[string]Options{
		"single-stage": {}, "stage-pipeline": {TargetStage: "x"},
	} {
		res, err := BuildContext(context.Background(), "ARG A=1\n", opt)
		if err == nil || !strings.Contains(err.Error(), "no FROM") {
			t.Errorf("%s: err = %v", name, err)
		}
		if res == nil {
			t.Errorf("%s: nil Result", name)
		}
	}
}

// A warm COPY --from replay must not flatten (and memoise) the source
// stage's tree: on a fresh store with a warm shared cache, every step
// replays and the only flatten fills are the two FROM bases.
func TestMultiStageWarmReplaySkipsSourceFlatten(t *testing.T) {
	w, s1 := fixtures(t)
	cache := NewCache()
	opt := Options{Tag: "f:1", Force: ForceSeccomp, World: w, Cache: cache}
	opt.Store = s1
	mustBuild(t, builderPattern, opt)

	_, s2 := fixtures(t)
	opt.Store = s2
	res, _ := mustBuild(t, builderPattern, opt)
	if res.CacheHits != 4 {
		t.Fatalf("warm hits = %d, want 4", res.CacheHits)
	}
	// centos:7 and alpine:3.19 chains only; the build stage's chain was
	// never flattened because its COPY --from replayed.
	if fills := s2.FlattenFills(); fills != 2 {
		t.Fatalf("flatten fills on warm store = %d, want 2", fills)
	}
}

func TestMultiStageParseErrorNonNilResult(t *testing.T) {
	res, err := BuildContext(context.Background(), "FROM a\nCOPY --from=later /x /y\nFROM b AS later\n", Options{})
	if err == nil {
		t.Fatal("forward reference must fail")
	}
	if res == nil {
		t.Fatal("Result must be non-nil on parse errors")
	}
}

// --target stops the build at the named stage: it becomes the product, is
// tagged, and later stages (plus anything only they reference) never run.
func TestTargetStageStopsEarly(t *testing.T) {
	w, s := fixtures(t)
	res, tr := mustBuild(t, builderPattern, Options{
		Tag: "builder:1", Force: ForceSeccomp, Store: s, World: w,
		TargetStage: "build",
	})
	// Only the target stage runs: the alpine stages (debug AND final) are
	// skipped, and the result is the centos build stage's image.
	if res.StagesBuilt != 1 || res.StagesSkipped != 2 {
		t.Fatalf("built=%d skipped=%d\n%s", res.StagesBuilt, res.StagesSkipped, tr)
	}
	if res.Image.Name != "builder:1" {
		t.Fatalf("target stage not tagged: %s", res.Image.Name)
	}
	if data, _ := readImageFile(t, res.Image, "/opt/out/bin"); string(data) != "artifact-v1\n" {
		t.Fatalf("artifact: %q", data)
	}
	if _, ok := s.GetContext(context.Background(), "builder:1"); !ok {
		t.Fatal("target image not in store")
	}
}

// --target accepts a decimal index too (StageIndex semantics).
func TestTargetStageByIndex(t *testing.T) {
	w, s := fixtures(t)
	res, _ := mustBuild(t, builderPattern, Options{
		Tag: "dbg:1", Force: ForceSeccomp, Store: s, World: w,
		TargetStage: "1", // the debug stage
	})
	if res.StagesBuilt != 1 || res.StagesSkipped != 2 {
		t.Fatalf("built=%d skipped=%d", res.StagesBuilt, res.StagesSkipped)
	}
	fs, err := res.Image.Flatten()
	if err != nil {
		t.Fatal(err)
	}
	if !fs.Exists(vfs.RootContext(), "/usr/bin/sl") {
		t.Fatal("debug stage's package missing from target image")
	}
}

// A --target naming a mid-DAG stage builds its dependencies but nothing
// downstream.
func TestTargetStageBuildsDependencies(t *testing.T) {
	w, s := fixtures(t)
	text := `FROM centos:7 AS base
RUN mkdir -p /opt && echo lib > /opt/lib

FROM base AS mid
RUN echo mid > /opt/mid

FROM alpine:3.19
COPY --from=mid /opt/mid /mid
`
	res, _ := mustBuild(t, text, Options{
		Tag: "mid:1", Force: ForceSeccomp, Store: s, World: w, TargetStage: "mid",
	})
	if res.StagesBuilt != 2 || res.StagesSkipped != 1 {
		t.Fatalf("built=%d skipped=%d", res.StagesBuilt, res.StagesSkipped)
	}
	if data, _ := readImageFile(t, res.Image, "/opt/lib"); string(data) != "lib\n" {
		t.Fatalf("dependency stage content missing: %q", data)
	}
}

// An unknown --target is an error before anything builds.
func TestTargetStageUnknownFails(t *testing.T) {
	w, s := fixtures(t)
	res, _, err := mustFail(t, builderPattern, Options{
		Tag: "x", Force: ForceSeccomp, Store: s, World: w, TargetStage: "nope",
	})
	if !strings.Contains(err.Error(), `target stage "nope" not found`) {
		t.Fatalf("err=%v", err)
	}
	if res.StagesBuilt != 0 {
		t.Fatalf("stages built despite bad target: %d", res.StagesBuilt)
	}
}

// --target on a single-stage Dockerfile routes through the stage driver
// and validates the name.
func TestTargetStageSingleStageFile(t *testing.T) {
	w, s := fixtures(t)
	res, _ := mustBuild(t, "FROM alpine:3.19 AS only\nRUN apk add sl\n", Options{
		Tag: "only:1", Force: ForceSeccomp, Store: s, World: w, TargetStage: "only",
	})
	if res.StagesBuilt != 1 {
		t.Fatalf("built=%d", res.StagesBuilt)
	}
	if _, _, err := mustFail(t, "FROM alpine:3.19 AS only\nRUN apk add sl\n", Options{
		Tag: "x", Store: s, World: w, TargetStage: "typo",
	}); err == nil {
		t.Fatal("bad target on single-stage file accepted")
	}
}

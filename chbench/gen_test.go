package main

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/build"
	"repro/internal/pkgmgr"
)

// draw takes n Dockerfiles and n daemon requests from one generator.
func draw(seed int64, n int) ([]Dockerfile, []request) {
	g := newGen(seed, corpus)
	var dfs []Dockerfile
	for i := 0; i < n; i++ {
		dfs = append(dfs, g.file(fmt.Sprintf("f%d", i), true))
	}
	var reqs []request
	for i := 0; i < n; i++ {
		reqs = append(reqs, g.request(i, dfs, daemonMix))
	}
	return dfs, reqs
}

func TestSameSeedSameInputs(t *testing.T) {
	a, ra := draw(7, 40)
	b, rb := draw(7, 40)
	if !reflect.DeepEqual(a, b) {
		t.Error("seed 7 drew different Dockerfiles twice")
	}
	if !reflect.DeepEqual(ra, rb) {
		t.Error("seed 7 drew different request schedules twice")
	}
}

func TestOtherSeedOtherInputs(t *testing.T) {
	a, ra := draw(7, 40)
	b, rb := draw(8, 40)
	same := 0
	for i := range a {
		if a[i].Text == b[i].Text && reflect.DeepEqual(a[i].Context, b[i].Context) {
			same++
		}
	}
	if same == len(a) {
		t.Error("seeds 7 and 8 drew the same Dockerfiles")
	}
	classes := func(rs []request) (s string) {
		for _, r := range rs {
			s += r.Class + r.Tag + "\n"
		}
		return s
	}
	if classes(ra) == classes(rb) {
		t.Error("seeds 7 and 8 drew the same request schedule")
	}
}

// TestCorpusPropertiesHold checks that the drawn inputs show the
// properties the corpus profile names — every distro, multi-stage files,
// COPY contexts, installs shared ahead of the unique ENV line — and that
// the dealt shares come out as the profile's fractions.
func TestCorpusPropertiesHold(t *testing.T) {
	dfs, _ := draw(1, 8*40) // forty blocks of the multi-stage deck
	seen := map[string]bool{}
	multi, copies, shared := 0, 0, 0
	for _, df := range dfs {
		seen[df.Distro] = true
		if df.Stages == 2 {
			multi++
		}
		if len(df.Context) > 0 {
			copies++
		}
		if lines := strings.Split(df.Text, "\n"); strings.HasPrefix(lines[1], "RUN ") {
			shared++
		}
	}
	if len(seen) != len(distros) {
		t.Errorf("drew distros %v, want all %d", seen, len(distros))
	}
	if want := len(dfs) * corpus.MultiStage[0] / corpus.MultiStage[1]; multi != want {
		t.Errorf("%d multi-stage files in %d, want %d", multi, len(dfs), want)
	}
	if copies == 0 || shared == 0 {
		t.Errorf("%d files with a COPY context and %d opening with a shared install in %d", copies, shared, len(dfs))
	}
}

// TestGeneratedBuildsAreCorrect builds generated Dockerfiles in memory:
// every build succeeds, a never-seen file executes exactly its cacheable
// count, the image holds the files the generator wrote, and daemon
// requests report the executed and cache-hit counts their class implies.
func TestGeneratedBuildsAreCorrect(t *testing.T) {
	world := pkgmgr.NewWorld()
	store, err := seedStore(world, nil)
	if err != nil {
		t.Fatal(err)
	}
	cache := build.NewCache()
	opts := func(tag string, df Dockerfile) build.Options {
		return build.Options{Tag: tag, Force: build.ForceSeccomp, Store: store, World: world,
			Cache: cache, Context: df.Context, StageJobs: 1}
	}
	g := newGen(3, corpus)
	for i := 0; i < 12; i++ {
		df := g.file(fmt.Sprintf("t%d", i), false)
		res, err := build.BuildContext(context.Background(), df.Text, opts("t:latest", df))
		if err != nil {
			t.Fatalf("file %d: %v\n%s", i, err, df.Text)
		}
		if res.Executed != df.Cacheable {
			t.Errorf("file %d: executed %d, want %d\n%s", i, res.Executed, df.Cacheable, df.Text)
		}
		if err := checkFiles(res.Image, df.Files); err != nil {
			t.Errorf("file %d: %v\n%s", i, err, df.Text)
		}
	}

	g = newGen(4, corpus)
	variants := g.workingSet(daemonMix)
	steps := 0
	for v, df := range variants {
		if _, err := build.BuildContext(context.Background(), df.Text, opts(fmt.Sprintf("variant-%d:latest", v), df)); err != nil {
			t.Fatalf("variant %d: %v\n%s", v, err, df.Text)
		}
		steps += df.Cacheable
	}
	if len(variants) != daemonMix.Variants || steps != daemonMix.Steps {
		t.Errorf("working set of %d variants with %d steps, want %d and %d", len(variants), steps, daemonMix.Variants, daemonMix.Steps)
	}
	classes := map[string]int{}
	for i := 0; i < 80; i++ {
		r := g.request(i, variants, daemonMix)
		classes[r.Class]++
		res, err := build.BuildContext(context.Background(), r.DF.Text, opts(r.Tag, r.DF))
		if err != nil {
			t.Fatalf("request %d (%s): %v", i, r.Class, err)
		}
		if res.Executed != r.WantExec || res.CacheHits != r.WantHits {
			t.Errorf("request %d (%s): executed %d, hits %d; want %d and %d\n%s",
				i, r.Class, res.Executed, res.CacheHits, r.WantExec, r.WantHits, r.DF.Text)
		}
		if err := checkFiles(res.Image, r.DF.Files); err != nil {
			t.Errorf("request %d (%s): %v", i, r.Class, err)
		}
	}
	if classes[classWarm] == 0 || classes[classEdit] == 0 {
		t.Errorf("80 requests drew classes %v", classes)
	}
}

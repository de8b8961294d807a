package main

// The traced run's analysis: self time per layer from the span trees the
// run kept in memory, and timings of the public functions of the layers
// reached only inside BuildContext (dockerfile.Parse, core.Generate,
// tarutil.Pack/Unpack, Store.FlattenContext on a fresh backed store),
// taken on the inputs the run captured.

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"repro/internal/cas"
	"repro/internal/core"
	"repro/internal/dockerfile"
	"repro/internal/image"
	"repro/internal/obs"
	"repro/internal/pkgmgr"
	"repro/internal/tarutil"
	"repro/internal/vfs"
)

// layerOf names the layer a span's self time is charged to.
func layerOf(sd obs.SpanData) string {
	switch name := sd.Name; {
	case name == "cas.Open":
		return "cas.open"
	case name == "image.seed":
		return "image.seed"
	case name == "build.BuildContext":
		return "build.self"
	case name == "cas.GC":
		return "cas.gc"
	case name == "cas.Close":
		return "cas.close"
	case strings.HasPrefix(name, "daemon."):
		return name
	case strings.HasPrefix(name, "stage "):
		return "build.stage_self"
	case strings.HasPrefix(name, "build "):
		// The daemon's operation root: admission to settle, around the
		// pool's scheduling and BuildContext.
		return "daemon.op_self"
	case strings.HasPrefix(name, "FROM"):
		return "build.from"
	}
	switch attr(sd, "cache") {
	case "hit":
		return "build.instr_hit"
	case "miss":
		return "build.instr_miss"
	}
	return "build.instr_meta"
}

func attr(sd obs.SpanData, key string) string {
	for _, a := range sd.Attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return ""
}

// selfTime is a span's duration minus the part of it its children cover.
func selfTime(sd obs.SpanData) float64 {
	type iv struct{ lo, hi float64 }
	var ivs []iv
	end := sd.StartMs + sd.DurationMs
	for _, c := range sd.Children {
		lo, hi := max(c.StartMs, sd.StartMs), min(c.StartMs+c.DurationMs, end)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	covered, reach := 0.0, sd.StartMs
	for _, v := range ivs {
		if v.hi <= reach {
			continue
		}
		covered += v.hi - max(v.lo, reach)
		reach = v.hi
	}
	return sd.DurationMs - covered
}

// walkSpans visits sd and its descendants; child offsets in SpanData are
// relative to the snapshot root, so no rebasing is needed.
func walkSpans(sd obs.SpanData, visit func(obs.SpanData)) {
	visit(sd)
	for _, c := range sd.Children {
		walkSpans(c, visit)
	}
}

// layerTimes accumulates self time per layer over a set of span trees.
type layerTimes struct {
	self    map[string]float64   // layer → total self ms
	spans   map[string][]float64 // layer → duration of each of its spans
	perTree map[string][]float64 // layer → its self time in each tree
	wall    float64              // total root duration ms
	roots   int
	// coverage holds, per tree, the share of the root's duration its
	// named layers' self times account for.
	coverage []float64
}

func newLayerTimes() *layerTimes {
	return &layerTimes{self: map[string]float64{}, spans: map[string][]float64{}, perTree: map[string][]float64{}}
}

// add folds one tree. The tree root's own self time is the benchmark's glue
// between the calls it wraps and is charged to no layer.
func (lt *layerTimes) add(tree obs.SpanData) {
	lt.roots++
	lt.wall += tree.DurationMs
	named := 0.0
	perTree := map[string]float64{}
	for _, c := range tree.Children {
		walkSpans(c, func(sd obs.SpanData) {
			layer, st := layerOf(sd), selfTime(sd)
			lt.self[layer] += st
			perTree[layer] += st
			named += st
			lt.spans[layer] = append(lt.spans[layer], sd.DurationMs)
		})
	}
	for _, l := range []string{"build.self", "build.stage_self"} {
		lt.perTree[l] = append(lt.perTree[l], perTree[l])
	}
	if tree.DurationMs > 0 {
		lt.coverage = append(lt.coverage, named/tree.DurationMs)
	}
}

// median is the median duration of layer's spans (0 when none).
func (lt *layerTimes) median(layer string) float64 { return quantile(lt.spans[layer], 0.5) }

// medianPerTree is the median over trees of layer's self time in each.
func (lt *layerTimes) medianPerTree(layer string) float64 { return quantile(lt.perTree[layer], 0.5) }

// print writes each layer's share of the traced wall time.
func (lt *layerTimes) print(w io.Writer) {
	layers := make([]string, 0, len(lt.self))
	for l := range lt.self {
		layers = append(layers, l)
	}
	sort.Slice(layers, func(i, j int) bool { return lt.self[layers[i]] > lt.self[layers[j]] })
	fmt.Fprintf(w, "  self time by layer over %d traced builds (%.1f ms wall):\n", lt.roots, lt.wall)
	for _, l := range layers {
		share := 0.0
		if lt.wall > 0 {
			share = lt.self[l] / lt.wall
		}
		fmt.Fprintf(w, "    %-20s %10.3f ms/build %6.1f%%\n", l, lt.self[l]/float64(max(1, lt.roots)), 100*share)
	}
	fmt.Fprintf(w, "  named layers account for %.1f%% of traced wall time (median per build)\n",
		100*quantile(lt.coverage, 0.5))
}

// timeMedian runs f reps times and returns the median duration in µs.
func timeMedian(reps int, f func()) float64 {
	ts := make([]float64, reps)
	for i := range ts {
		t0 := time.Now()
		f()
		ts[i] = float64(time.Since(t0)) / float64(time.Microsecond)
	}
	return quantile(ts, 0.5)
}

// probes are the layer timings taken on captured inputs after the run.
type probes struct {
	parseUs, generateUs float64
	filterInsns         int
	packUs, unpackUs    float64
	rehydrateMs         float64
}

// maxProbeInputs caps how many captured inputs each probe times.
const maxProbeInputs = 64

// runProbes times the public functions of the layers reached only inside
// BuildContext on texts and layers captured from the run. It times
// rehydration against the store at root (when root is non-empty) through
// a second, lazily verified handle.
func runProbes(ctx context.Context, texts []string, layers [][]byte, root string) (probes, error) {
	var p probes
	var parse []float64
	for _, t := range texts[:min(len(texts), maxProbeInputs)] {
		t := t
		parse = append(parse, timeMedian(5, func() { dockerfile.Parse(t) }))
	}
	p.parseUs = mean(parse)

	prog, err := core.Generate(core.Config{})
	if err != nil {
		return p, fmt.Errorf("probe generate: %w", err)
	}
	p.filterInsns = len(prog)
	p.generateUs = timeMedian(50, func() { core.Generate(core.Config{}) })

	var pack, unpack []float64
	for _, l := range layers[:min(len(layers), maxProbeInputs)] {
		l := l
		unpack = append(unpack, timeMedian(5, func() { tarutil.Unpack(vfs.New(), l) }))
		fs := vfs.New()
		if err := tarutil.Unpack(fs, l); err != nil {
			return p, fmt.Errorf("probe unpack: %w", err)
		}
		entries, err := tarutil.Snapshot(fs)
		if err != nil {
			return p, fmt.Errorf("probe snapshot: %w", err)
		}
		pack = append(pack, timeMedian(5, func() { tarutil.Pack(entries) }))
	}
	p.packUs, p.unpackUs = mean(pack), mean(unpack)

	if root != "" {
		d, _, err := cas.Open(root, cas.WithVerify(cas.VerifyLazy))
		if err != nil {
			return p, fmt.Errorf("probe rehydrate: %w", err)
		}
		defer d.Close()
		world := pkgmgr.NewWorld()
		var ts []float64
		for rep := 0; rep < 5; rep++ {
			for _, ds := range distros {
				s := image.NewStore()
				s.SetBacking(d)
				img, err := world.BaseImage(ds.name, ds.base)
				if err != nil {
					return p, err
				}
				s.Put(img)
				t0 := time.Now()
				if _, err := s.FlattenContext(ctx, img); err != nil {
					return p, fmt.Errorf("probe rehydrate: %w", err)
				}
				if s.Rehydrates() == 1 { // a chain the budget GC evicted fills instead
					ts = append(ts, ms(time.Since(t0)))
				}
			}
		}
		p.rehydrateMs = quantile(ts, 0.5)
	}
	return p, nil
}

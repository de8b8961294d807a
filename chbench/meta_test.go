package main

import (
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"

	"repro/internal/obs"
)

// benchmarkFile is the subset of ../BENCHMARK.json the code must agree
// with.
type benchmarkFile struct {
	Workloads []struct{ Name string }               `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string }         `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readJSON(t *testing.T, path string, v any) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}

func TestBenchmarkJSONMatchesCode(t *testing.T) {
	var bf benchmarkFile
	readJSON(t, "../BENCHMARK.json", &bf)
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, code runs %v", names, workloadNames())
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json declares %d per-layer metrics, code reports %d", len(bf.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		if got := bf.PerLayer[i]; got.Name != m.name || got.Unit != m.unit || got.Better != m.better {
			t.Errorf("per_layer[%d] = %+v, code declares %+v", i, got, m)
		}
	}
	want := map[string]string{}
	for _, m := range bf.EndToEnd {
		want[m.Name] = m.Unit
	}
	got := map[string]string{}
	for name, m := range endToEnd(map[string]float64{}) {
		got[name] = m.Unit
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("end-to-end metrics %v, BENCHMARK.json declares %v", got, want)
	}
}

// TestInteractionMapCoversEveryMetric checks interactions.json: one entry
// per per-layer metric naming only declared metrics and workloads, the
// recorded corpus profile and daemon mix equal to the ones the generator
// uses, and a source for each of their values.
func TestInteractionMapCoversEveryMetric(t *testing.T) {
	var m struct {
		Corpus struct {
			Profile Profile           `json:"profile"`
			Sources map[string]string `json:"sources"`
		} `json:"corpus"`
		Workloads map[string]struct {
			Mix        *Mix              `json:"mix"`
			MixSources map[string]string `json:"mix_sources"`
		} `json:"workloads"`
		PerLayer map[string]struct {
			Moves [][]string `json:"moves"`
			NotOn []string   `json:"not_on"`
		} `json:"per_layer"`
	}
	readJSON(t, "interactions.json", &m)
	if !reflect.DeepEqual(m.Corpus.Profile, corpus) {
		t.Errorf("recorded corpus profile %+v, generator uses %+v", m.Corpus.Profile, corpus)
	}
	requireSources(t, "corpus profile", corpus, m.Corpus.Sources)
	d := m.Workloads["daemon-open"]
	if d.Mix == nil || *d.Mix != daemonMix {
		t.Errorf("daemon-open: recorded mix %+v, generator uses %+v", d.Mix, daemonMix)
	}
	requireSources(t, "daemon-open mix", daemonMix, d.MixSources)
	// Besides the JSON result's end-to-end metrics, the map may name the
	// ones a run only prints.
	e2e := endToEnd(map[string]float64{})
	for _, name := range []string{"build_ms_p99", "failed_ratio", "slo_miss_ratio"} {
		e2e[name] = metric{}
	}
	for _, pl := range perLayer {
		entry, ok := m.PerLayer[pl.name]
		if !ok {
			t.Errorf("%s: no entry in interactions.json", pl.name)
			continue
		}
		for _, mv := range entry.Moves {
			if _, ok := e2e[mv[0]]; !ok || len(mv) < 2 || !isWorkload(mv[1]) {
				t.Errorf("%s: moves %v names no end-to-end metric and workload", pl.name, mv)
			}
		}
		for _, w := range entry.NotOn {
			if !isWorkload(w) {
				t.Errorf("%s: not_on names unknown workload %q", pl.name, w)
			}
		}
	}
	if len(m.PerLayer) != len(perLayer) {
		t.Errorf("interactions.json has %d per-layer entries, code declares %d", len(m.PerLayer), len(perLayer))
	}
}

// requireSources fails unless every JSON field of v has a source.
func requireSources(t *testing.T, what string, v any, sources map[string]string) {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	var fields map[string]any
	if err := json.Unmarshal(data, &fields); err != nil {
		t.Fatal(err)
	}
	for f := range fields {
		if sources[f] == "" {
			t.Errorf("%s: %s has no source", what, f)
		}
	}
	if len(sources) != len(fields) {
		t.Errorf("%s: %d sources for %d fields", what, len(sources), len(fields))
	}
}

func isWorkload(name string) bool { _, ok := workloads[name]; return ok }

func TestSelfTimeSubtractsCoveredChildTime(t *testing.T) {
	sd := obs.SpanData{StartMs: 0, DurationMs: 10, Children: []obs.SpanData{
		{StartMs: 1, DurationMs: 3}, // 1-4
		{StartMs: 2, DurationMs: 4}, // 2-6, overlaps the first
		{StartMs: 8, DurationMs: 5}, // 8-13, runs past the parent
	}}
	if got := selfTime(sd); got != 3 { // uncovered: 0-1, 6-8
		t.Errorf("selfTime = %g, want 3", got)
	}
}

func TestQuantileAndTail(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(1000 - i)
	}
	if got := quantile(xs, 0.5); got != 500 {
		t.Errorf("median = %g, want 500", got)
	}
	if got := quantile(xs, 0.99); got != 990 {
		t.Errorf("p99 = %g, want 990", got)
	}
	if got := p99Tail(1000); got != 0.99 {
		t.Errorf("p99Tail(1000) = %g, want 0.99", got)
	}
	if got := p99Tail(500); got != 0.98 {
		t.Errorf("p99Tail(500) = %g, want 0.98 (ten samples beyond)", got)
	}
}

// Multi-stage build driver. A multi-stage Dockerfile is a DAG of stages:
// each FROM opens a stage, a stage may base itself on an earlier stage
// (FROM builder) or read from one (COPY --from=builder), and only the
// final stage is the build product. The driver topologically orders the
// reachable stages and schedules them wave by wave on the existing
// build.Pool: each wave holds every stage whose dependencies completed in
// earlier waves, and all stages of a wave run concurrently, each on its
// own simos kernel and VFS, all sharing the one image.Store and
// instruction Cache exactly like pooled whole builds. (A wave is a
// barrier: a stage ready mid-wave starts with the next wave — see the
// scheduler-depth item in ROADMAP.md.)
// Stages the final stage never references are pruned: parsed, validated,
// reported, but not built.
package build

import (
	"context"
	"fmt"
	"io"

	"repro/internal/dockerfile"
	"repro/internal/image"
	"repro/internal/simos"
)

// stageJob carries one stage through the Pool (Job.stage). The imgs slice
// is shared with the driver, which publishes every completed wave's images
// before submitting the next wave — RunContext's completion is the
// happens-before edge, so stage builders never race on it.
type stageJob struct {
	file  *dockerfile.File
	idx   int
	imgs  []*image.Image
	final bool
}

// buildStages executes the stage pipeline end to end and returns the final
// (or Options.TargetStage) stage's image, tagged into Options.Store under
// Options.Tag. It schedules the reachable stages of f in dependency order:
// independent stages run concurrently, bounded by Options.StageJobs;
// intermediate stage images are never tagged. Cancellation stops every
// in-flight stage at its next instruction boundary and the waves that
// never started never run. BuildContext has already rejected a FROM-less
// f. The returned Result is never nil.
func buildStages(ctx context.Context, f *dockerfile.File, opt Options) (*Result, error) {
	out := opt.Output
	if out == nil {
		out = io.Discard
	}
	agg := &Result{}
	final := len(f.Stages) - 1
	if opt.TargetStage != "" {
		idx, ok := f.StageIndex(opt.TargetStage)
		if !ok {
			return agg, fmt.Errorf("build: target stage %q not found", opt.TargetStage)
		}
		final = idx
	}
	reach := f.ReachableFrom(final)
	for i, ok := range reach {
		if !ok {
			agg.StagesSkipped++
			fmt.Fprintf(out, "=== stage %d/%d (%s): skipped, not referenced by the target stage\n",
				i+1, len(f.Stages), stageLabel(f.Stages[i]))
		}
	}

	imgs := make([]*image.Image, len(f.Stages))
	stageRes := make([]*Result, len(f.Stages))
	built := make([]bool, len(f.Stages))
	for !built[final] {
		// Collect the ready wave: reachable, unbuilt, all deps built.
		var ready []int
		for i := range f.Stages {
			if !reach[i] || built[i] {
				continue
			}
			ok := true
			for _, d := range f.Stages[i].Deps {
				if !built[d] {
					ok = false
					break
				}
			}
			if ok {
				ready = append(ready, i)
			}
		}
		if len(ready) == 0 {
			// Unreachable through the parser (references only point
			// backward), kept as a guard against future DAG changes.
			return agg, fmt.Errorf("build: stage dependency cycle")
		}

		jobs := make([]Job, len(ready))
		for j, i := range ready {
			o := opt
			o.Output = nil // captured per stage, replayed in wave order
			o.Tag = ""
			if i == final {
				o.Tag = opt.Tag
			}
			jobs[j] = Job{
				Name:    fmt.Sprintf("stage %d (%s)", i+1, stageLabel(f.Stages[i])),
				Options: o,
				stage:   &stageJob{file: f, idx: i, imgs: imgs, final: i == final},
			}
		}
		results, err := (&Pool{Workers: opt.StageJobs, FailFast: true}).RunContext(ctx, jobs)
		for j, r := range results {
			i := ready[j]
			fmt.Fprintf(out, "=== stage %d/%d (%s)\n", i+1, len(f.Stages), stageLabel(f.Stages[i]))
			io.WriteString(out, r.Transcript)
			if r.Result != nil {
				stageRes[i] = r.Result
				if r.Err == nil {
					built[i] = true
					imgs[i] = r.Result.Image
				}
			}
		}
		if err != nil {
			aggregate(agg, stageRes, built)
			return agg, err
		}
	}

	aggregate(agg, stageRes, built)
	agg.Image = imgs[final]
	fmt.Fprintf(out, "multi-stage build: %d stage(s) built, %d skipped: %s\n",
		agg.StagesBuilt, agg.StagesSkipped, agg.Image.Name)
	return agg, nil
}

// aggregate folds the per-stage results into the whole-build Result:
// counts and modeled time sum across every stage that ran (a failed stage
// still contributes the counters it accrued), counters add field-wise;
// StagesBuilt counts only the stages that completed.
func aggregate(agg *Result, stageRes []*Result, built []bool) {
	for i, r := range stageRes {
		if r == nil {
			continue
		}
		if built[i] {
			agg.StagesBuilt++
		}
		agg.CacheHits += r.CacheHits
		agg.Executed += r.Executed
		agg.ModifiedRuns += r.ModifiedRuns
		agg.FakerootRecords += r.FakerootRecords
		agg.VirtualNanos += r.VirtualNanos
		agg.Counters = addCounters(agg.Counters, r.Counters)
	}
}

// addCounters sums two kernel counter snapshots field-wise.
func addCounters(a, b simos.CounterSnapshot) simos.CounterSnapshot {
	a.Syscalls += b.Syscalls
	a.Filtered += b.Filtered
	a.Faked += b.Faked
	a.PtraceStops += b.PtraceStops
	a.PreloadHits += b.PreloadHits
	a.NotifEvents += b.NotifEvents
	return a
}

// stageLabel names a stage for transcripts and job identities: its AS name
// when present, else its index.
func stageLabel(st dockerfile.Stage) string {
	if st.Name != "" {
		return st.Name
	}
	return fmt.Sprintf("%d", st.Index)
}

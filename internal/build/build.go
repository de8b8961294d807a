// Package build is the Dockerfile build executor — the ch-image analog
// that connects every other layer of the reproduction: it parses with
// internal/dockerfile, boots one simos.Kernel per build, enters a fully
// unprivileged Type III container (internal/container) on a rootfs
// flattened from the image store, installs the selected root-emulation
// mechanism (internal/rootemu: the paper's seccomp filter, or the
// fakeroot/proot baselines), runs RUN instructions through internal/shell
// and the distribution package managers (internal/pkgmgr), and commits
// each instruction's filesystem delta as a content-addressed layer
// (internal/tarutil → internal/image).
//
// The layering mirrors the paper's §4 architecture:
//
//	dockerfile → stage DAG → pool → build → rootemu → simos/vfs → image
//
// Multi-stage Dockerfiles route through the stage driver (buildStages in
// stages.go): reachable stages are scheduled in dependency order on
// build.Pool, COPY --from materialises files from earlier stages'
// flattened trees, and only the final stage is tagged.
//
// Because the builder is unprivileged, the rootfs is re-owned to the
// invoking user before entry (Charliecloud's unpack behaviour); inside
// the container that user is root in a single-ID Type III mapping, and
// whether privileged package installs succeed depends entirely on the
// Force mode — the paper's Figures 1 and 2 in executable form.
package build

import (
	"context"
	"fmt"
	"io"
	"path"
	"sort"
	"strings"
	"time"

	"repro/internal/baseline"
	"repro/internal/cas"
	"repro/internal/container"
	"repro/internal/core"
	"repro/internal/dockerfile"
	"repro/internal/errno"
	"repro/internal/image"
	"repro/internal/obs"
	"repro/internal/pkgmgr"
	"repro/internal/rootemu"
	"repro/internal/simos"
	"repro/internal/tarutil"
	"repro/internal/vfs"
)

// ForceMode selects the root-emulation mechanism installed on the build
// container, ch-image's --force flag.
type ForceMode int

const (
	// ForceNone runs with no emulation: privileged syscalls fail as the
	// kernel dictates (Fig. 1).
	ForceNone ForceMode = iota
	// ForceSeccomp installs the paper's zero-consistency seccomp filter
	// (Fig. 2).
	ForceSeccomp
	// ForceFakeroot attaches the LD_PRELOAD fakeroot baseline (§3.1).
	ForceFakeroot
	// ForceProot attaches the ptrace PRoot baseline (§3.2).
	ForceProot
)

// String renders the mode as its ch-image --force flag value.
func (m ForceMode) String() string {
	switch m {
	case ForceSeccomp:
		return "seccomp"
	case ForceFakeroot:
		return "fakeroot"
	case ForceProot:
		return "proot"
	}
	return "none"
}

// Options configures one build.
type Options struct {
	// Tag names the result image in the store ("name:tag").
	Tag string

	// Force selects the root-emulation mechanism.
	Force ForceMode

	// Store resolves FROM references and receives the result image.
	Store *image.Store

	// World supplies the distribution toolchains and repositories.
	World *pkgmgr.World

	// Cache, when non-nil, enables the per-instruction build cache;
	// share one across builds for warm rebuilds.
	Cache *Cache

	// CacheDir, when non-empty, names a persistent content-addressed
	// store (internal/cas) opened for this build: Store is backed by it
	// and, when Cache is nil, a persistent instruction cache is created
	// from it — so a second invocation of the same build in a *different
	// process* replays warm from disk. The handle is scoped to the call:
	// Build swaps it in as the Store's backing and restores the previous
	// backing (closing its own handle) before returning — which is why
	// CacheDir must NOT be used by concurrent Builds sharing one Store:
	// the swap/restore pairs interleave and a stale or closed backing can
	// win. Concurrent callers, and callers running many builds (an open
	// is a full fsck pass over the store), should wire persistence once
	// themselves: cas.Open + NewPersistentCache + Store.SetBacking.
	CacheDir string

	// CacheVerify selects how much validation the CacheDir open performs:
	// cas.VerifyFull (the zero value) reads and re-hashes every blob up
	// front; cas.VerifyLazy defers blob validation to first read, making
	// the open O(journal) instead of O(store bytes). Ignored when
	// CacheDir is empty.
	CacheVerify cas.VerifyMode

	// CacheMaxBytes, when > 0, runs a size-budgeted GC on the CacheDir
	// store after the build: least-recently-recorded unpinned entries are
	// evicted until the blob store fits the budget. A GC failure (for
	// example cas.ErrBusy while another process holds the store) does not
	// fail the build; it is recorded as a Store backing error. Ignored
	// when CacheDir is empty.
	CacheMaxBytes int64

	// TargetStage, when non-empty, stops a multi-stage build at the named
	// stage (`ch-image build --target`): that stage — referenced by its AS
	// name or decimal index — becomes the build product, it is tagged, and
	// stages only later stages depend on are never built.
	TargetStage string

	// Context holds the build-context files COPY/ADD resolve against.
	Context map[string][]byte

	// BuildArgs overrides ARG defaults.
	BuildArgs map[string]string

	// Output receives the build transcript (instruction lines plus the
	// stdout/stderr of every RUN). Nil discards.
	Output io.Writer

	// DisableAptWorkaround turns off the §5 RUN rewriting that injects
	// -o APT::Sandbox::User=root into apt command lines under seccomp.
	DisableAptWorkaround bool

	// StageJobs bounds how many independent stages of a multi-stage build
	// run concurrently on the stage pool; <= 0 runs every ready stage at
	// once. Ignored for single-stage builds.
	StageJobs int

	// FilterConfig parameterises the seccomp filter (variant, dispatch
	// strategy, architectures). Zero value is the paper's filter.
	// Ignored unless Force is ForceSeccomp.
	FilterConfig core.Config

	// Tracer, when set, receives one event per simulated syscall.
	Tracer func(simos.TraceEvent)

	// Progress, when set, is called synchronously at every instruction
	// boundary, immediately before the instruction runs, with the build's
	// context — the daemon's per-operation progress feed. The callback
	// must be safe for concurrent use (the stages of a multi-stage build
	// share it), and it must not block without selecting on ctx.Done: the
	// build is parked for as long as the callback runs.
	Progress func(ctx context.Context, ev ProgressEvent)

	// BuildTimeout, when > 0, bounds the whole build: the build's context
	// gains this deadline, and a build that overruns it fails at the next
	// instruction boundary with an error wrapping
	// context.DeadlineExceeded (`ch-image build --timeout`).
	BuildTimeout time.Duration

	// InstrTimeout, when > 0, bounds each cacheable instruction: an
	// instruction that overruns it fails the build with a deadline error
	// naming the instruction. The whole-build deadline, when also set,
	// still applies on top.
	InstrTimeout time.Duration

	// testStepGate, when set, is called before every instruction with the
	// build's context and the instruction name. Tests use it as a
	// rendezvous point to hold builds at a known boundary; the gate must
	// select on ctx.Done so a cancelled build can leave.
	testStepGate func(ctx context.Context, cmd string)
}

// ProgressEvent is one instruction boundary of a running build, reported
// through Options.Progress. Step counts within one stage's instruction
// sequence; concurrent stages of a multi-stage build interleave their
// events.
type ProgressEvent struct {
	// Step is the 1-based index of the instruction about to run.
	Step int

	// Total is the length of the stage's instruction sequence.
	Total int

	// Cmd is the instruction name (FROM, RUN, COPY, ...).
	Cmd string

	// Raw is the instruction's argument text.
	Raw string
}

// Result reports what a build did.
type Result struct {
	// Image is the built image (also tagged into Options.Store on
	// success).
	Image *image.Image

	// CacheHits counts instructions replayed from the cache.
	CacheHits int

	// Executed counts cacheable instructions (RUN, COPY, ADD) that
	// actually executed rather than replaying from the cache. A fully
	// warm rebuild reports Executed == 0 — the `make cache-smoke`
	// assertion.
	Executed int

	// ModifiedRuns counts RUN instructions rewritten by the apt
	// workaround (the Fig. 2 "modified N RUN instructions" report).
	ModifiedRuns int

	// FakerootRecords is the consistent-emulation state size after the
	// build: ownership records kept by the fakeroot or proot baseline.
	// Always zero for the seccomp method (E9).
	FakerootRecords int

	// Counters snapshots the kernel's syscall accounting.
	Counters simos.CounterSnapshot

	// VirtualNanos is the modeled time the build charged (the E8/E15
	// metric; see simos.CostModel).
	VirtualNanos int64

	// StagesBuilt counts the stages a multi-stage build executed
	// (including cache-replayed ones). Zero for single-stage builds.
	StagesBuilt int

	// StagesSkipped counts the unreferenced stages a multi-stage build
	// pruned without executing. Zero for single-stage builds.
	StagesSkipped int

	// Degraded reports that the build succeeded in memory but some of its
	// persistence — cache write-through or store backing writes — failed.
	// The image is correct and tagged; the on-disk cache is merely colder
	// than it should be. DegradedErrs holds the failures.
	Degraded bool

	// DegradedErrs are the persistence failures behind Degraded: the
	// Cache's write-through errors followed by the Store's backing errors.
	// Nil when Degraded is false.
	DegradedErrs []error
}

// buildUID is the invoking (unprivileged) user every build runs as.
const buildUID = 1000

// BuildContext executes Dockerfile text under opts. Multi-stage
// Dockerfiles, and any build naming Options.TargetStage, are routed
// through the stage driver, which schedules independent stages
// concurrently on a stage pool and prunes unreferenced ones. The returned
// Result is never nil: on failure it still carries the counters and
// modeled time accrued up to the failing instruction. Cancelling ctx
// stops the build at its next instruction boundary with an error wrapping
// ctx's cause, and Options.BuildTimeout layers a whole-build deadline on
// top. A build that succeeds but fails to persist — cache write-through
// or store backing errors — still returns nil error, with Result.Degraded
// set (the degraded-operation contract; see docs/cas.md).
func BuildContext(ctx context.Context, text string, opt Options) (res *Result, err error) {
	if opt.BuildTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opt.BuildTimeout)
		defer cancel()
	}
	// Outcome accounting runs after the degraded annotation below (LIFO):
	// classification must observe Result.Degraded.
	defer func() { mBuilds.With(buildOutcome(res, err)).Inc() }()
	// Registered before every cleanup below so it runs after them (LIFO):
	// the degraded annotation must observe persistence failures recorded
	// by the deferred budget GC and the backing restore. The closure reads
	// opt, so the persistent cache installed in the CacheDir block is
	// visible to it.
	defer func() {
		if err == nil && res != nil {
			noteDegraded(res, opt)
		}
	}()
	f, err := dockerfile.Parse(text)
	if err != nil {
		return &Result{}, err
	}
	if len(f.Stages) == 0 {
		// Parseable but FROM-less: an ARG-only Dockerfile.
		return &Result{}, fmt.Errorf("build: no FROM instruction")
	}
	if opt.CacheDir != "" {
		d, _, err := cas.Open(opt.CacheDir, cas.WithVerify(opt.CacheVerify))
		if err != nil {
			return &Result{}, fmt.Errorf("build: cache dir: %w", err)
		}
		// The handle lives for this call only: restore whatever backing
		// the caller had and close ours on the way out, or every Build
		// would leak a journal fd and the store would keep writing through
		// a handle the caller never sees.
		defer d.Close() // LIFO: runs after the backing is restored below
		if opt.Cache == nil {
			opt.Cache = NewPersistentCache(d)
		}
		if opt.Store != nil {
			prev := opt.Store.Backing()
			opt.Store.SetBacking(d)
			defer opt.Store.SetBacking(prev)
		}
		if opt.CacheMaxBytes > 0 {
			// Registered after the backing swap so it runs before the
			// restore (LIFO): the budget applies to the store this build
			// just warmed. GCBacking records failures as backing errors
			// rather than failing the finished build. The GC runs even
			// when the build was cancelled — it is cleanup of a store the
			// build already wrote, not more build work — so it detaches
			// from ctx's cancellation while keeping its values.
			defer func() {
				gcCtx := context.WithoutCancel(ctx)
				if opt.Store != nil && opt.Store.Backing() == d {
					opt.Store.GCBacking(gcCtx, cas.Budget{MaxBytes: opt.CacheMaxBytes})
				} else {
					d.GC(gcCtx, cas.Budget{MaxBytes: opt.CacheMaxBytes})
				}
			}()
		}
	}
	if len(f.Stages) > 1 || opt.TargetStage != "" {
		return buildStages(ctx, f, opt)
	}
	res, _, err = buildOneStage(ctx, f, 0, nil, opt)
	return res, err
}

// noteDegraded annotates a successful build with the persistence
// failures its cache and store accrued: the build is correct in memory,
// the disk is merely colder.
func noteDegraded(res *Result, opt Options) {
	var errs []error
	if opt.Cache != nil {
		errs = append(errs, opt.Cache.PersistErrs()...)
	}
	if opt.Store != nil {
		errs = append(errs, opt.Store.BackingErrs()...)
	}
	if len(errs) > 0 {
		res.Degraded = true
		res.DegradedErrs = errs
	}
}

// buildOneStage executes one stage of f (for a single-stage file, the
// whole build): the global ARGs, the stage's FROM and its body. imgs holds
// the completed earlier stage images, indexed by stage; it may be nil when
// f has a single stage. It returns the stage's Result and image.
// Cancelling ctx stops the stage at its next instruction boundary.
func buildOneStage(ctx context.Context, f *dockerfile.File, stage int, imgs []*image.Image, opt Options) (*Result, *image.Image, error) {
	ctx, span := obs.StartSpan(ctx, fmt.Sprintf("stage %d (%s)", stage+1, stageLabel(f.Stages[stage])))
	defer span.End()
	b := &builder{
		ctx: ctx, opt: opt, out: opt.Output, res: &Result{},
		file: f, stageIdx: stage, stageImgs: imgs,
	}
	if b.out == nil {
		b.out = io.Discard
	}
	st := f.Stages[stage]
	ins := make([]dockerfile.Instruction, 0, len(f.GlobalArgs)+1+len(st.Body))
	ins = append(ins, f.GlobalArgs...)
	ins = append(ins, st.From)
	ins = append(ins, st.Body...)
	err := b.run(ctx, ins)
	if b.k != nil {
		b.res.Counters = b.k.Snapshot()
		b.res.VirtualNanos = b.k.VirtualNanos()
	}
	if b.fr != nil {
		b.res.FakerootRecords = b.fr.Records()
	}
	if b.pr != nil {
		b.res.FakerootRecords = b.pr.Records()
	}
	return b.res, b.cur, err
}

// builder is the per-stage build state machine (per-build for single-stage
// files).
type builder struct {
	// ctx is the context the current instruction runs under: the build
	// context, narrowed to a per-instruction deadline while a step with
	// Options.InstrTimeout executes. Step handlers pass it to every
	// cache and store operation.
	ctx context.Context

	opt Options
	out io.Writer
	res *Result

	file      *dockerfile.File // the whole parsed Dockerfile
	stageIdx  int              // which of file.Stages this builder executes
	stageImgs []*image.Image   // completed earlier stage images, nil for plain builds

	k  *simos.Kernel
	p  *simos.Proc
	fs *vfs.FS

	cur   *image.Image         // accumulating result image
	snap  *tarutil.Snapshotter // rootfs state as of the last committed step
	vars  map[string]string
	env   map[string]string
	shell []string

	fr *baseline.Fakeroot
	pr *baseline.PRoot

	chainKey string // content-addressed key of everything built so far
}

// run executes the stage's instruction sequence. ctx is checked at every
// instruction boundary: a cancelled or expired build stops before its
// next instruction with an error saying where it stopped, and the layers
// committed so far stay recorded in the cache — a later build resumes
// warm from the boundary.
func (b *builder) run(ctx context.Context, instructions []dockerfile.Instruction) error {
	b.vars = map[string]string{}
	b.env = map[string]string{}
	b.shell = []string{"/bin/sh", "-c"}

	for i, ins := range instructions {
		if gate := b.opt.testStepGate; gate != nil {
			gate(ctx, ins.Cmd)
		}
		// Like the test gate, Progress fires before the boundary's ctx
		// check: a cancelled build's final event names the boundary it
		// stopped at, and a blocking callback doubles as a rendezvous.
		if pr := b.opt.Progress; pr != nil {
			pr(ctx, ProgressEvent{Step: i + 1, Total: len(instructions), Cmd: ins.Cmd, Raw: ins.Raw})
		}
		if cerr := ctx.Err(); cerr != nil {
			return fmt.Errorf("build: interrupted before instruction %d (%s): %w",
				i+1, ins.Cmd, cerr)
		}
		// Narrow the instruction to its own deadline when configured; the
		// step handlers run cache and store operations under b.ctx.
		stepCtx, cancelStep := ctx, context.CancelFunc(func() {})
		if b.opt.InstrTimeout > 0 {
			stepCtx, cancelStep = context.WithTimeout(ctx, b.opt.InstrTimeout)
		}
		stepCtx, span := obs.StartSpan(stepCtx, instrSpanName(ins))
		b.ctx = stepCtx
		fmt.Fprintf(b.out, "%3d %s %s\n", i+1, ins.Cmd, ins.Raw)
		hits0, exec0 := b.res.CacheHits, b.res.Executed
		layers0 := 0
		if b.cur != nil {
			layers0 = len(b.cur.Layers)
		}
		t0 := time.Now()
		var err error
		switch {
		case b.p == nil && ins.Cmd != "FROM" && ins.Cmd != "ARG":
			err = fmt.Errorf("build: line %d: %s before FROM", ins.Line, ins.Cmd)
		default:
			err = b.step(ins)
		}
		mInstructionSeconds.ObserveSince(t0)
		if dh := b.res.CacheHits - hits0; dh > 0 {
			mInstrReplayed.Add(uint64(dh))
			span.Annotate("cache", "hit")
		}
		if dx := b.res.Executed - exec0; dx > 0 {
			mInstrExecuted.Add(uint64(dx))
			span.Annotate("cache", "miss")
		}
		if span != nil && b.cur != nil {
			var committed int64
			for _, l := range b.cur.Layers[min(layers0, len(b.cur.Layers)):] {
				committed += int64(len(l.Data))
			}
			if committed > 0 {
				span.AnnotateInt("bytes", committed)
			}
		}
		// An instruction that ran to completion but overran its own
		// deadline fails the build: the per-instruction budget is a
		// contract, not advice. (The simulated execution cannot block
		// mid-syscall, so the boundary is where the overrun surfaces.)
		if err == nil && stepCtx.Err() != nil && ctx.Err() == nil {
			err = fmt.Errorf("build: line %d: %s exceeded the per-instruction deadline: %w",
				ins.Line, ins.Cmd, stepCtx.Err())
		}
		if err != nil {
			span.Annotate("error", err.Error())
		}
		span.End()
		cancelStep()
		if err != nil {
			return err
		}
	}
	// Out of the loop, operations run under the build context again (the
	// last instruction's deadline no longer applies).
	b.ctx = ctx
	if b.p == nil {
		return fmt.Errorf("build: no FROM instruction")
	}
	b.cur.Config.Env = envList(b.env)
	b.res.Image = b.cur
	if b.opt.Tag != "" && b.opt.Store != nil {
		b.opt.Store.PutContext(ctx, b.cur)
	}
	fmt.Fprintf(b.out, "grown in %d instructions: %s\n", len(instructions), b.cur.Name)
	if b.opt.Force == ForceSeccomp {
		fmt.Fprintf(b.out, "--force=seccomp: modified %d RUN instructions\n", b.res.ModifiedRuns)
	}
	return nil
}

// step dispatches one instruction to its handler. The handler runs under
// b.ctx — the build context, narrowed to the per-instruction deadline
// when Options.InstrTimeout is set.
func (b *builder) step(ins dockerfile.Instruction) error {
	switch ins.Cmd {
	case "FROM":
		return b.stepFrom(ins)
	case "RUN":
		return b.stepRun(ins)
	case "COPY", "ADD":
		return b.stepCopy(ins)
	case "ENV":
		return b.stepEnv(ins)
	case "ARG":
		return b.stepArg(ins)
	case "WORKDIR":
		return b.stepWorkdir(ins)
	case "USER":
		b.cur.Config.User = b.expand(ins.Raw)
	case "LABEL":
		return b.stepLabel(ins)
	case "CMD":
		b.cur.Config.Cmd = b.commandWords(ins)
	case "ENTRYPOINT":
		b.cur.Config.Entrypoint = b.commandWords(ins)
	case "SHELL":
		if len(ins.ExecForm) == 0 {
			return fmt.Errorf("build: line %d: SHELL requires exec form", ins.Line)
		}
		b.shell = ins.ExecForm
		b.chainKey = chain(b.chainKey, "SHELL\x00"+strings.Join(b.shell, "\x00"))
	case "EXPOSE", "VOLUME", "STOPSIGNAL", "HEALTHCHECK", "ONBUILD", "MAINTAINER":
		// Accepted for compatibility; no effect on the simulated image.
	default:
		return fmt.Errorf("build: line %d: unsupported instruction %s", ins.Line, ins.Cmd)
	}
	return nil
}

// stepFrom resolves the base image — an earlier stage's built image or a
// store reference — boots the kernel, enters the Type III container and
// installs the requested root emulation.
func (b *builder) stepFrom(ins dockerfile.Instruction) error {
	if b.p != nil {
		// Cannot happen through BuildContext: the parser splits on
		// every FROM, so each stage body holds none.
		return fmt.Errorf("build: line %d: second FROM in one stage", ins.Line)
	}
	st := b.file.Stages[b.stageIdx]
	ref := b.expand(st.Base)
	var base *image.Image
	if st.BaseStage >= 0 {
		base = b.stageImage(st.BaseStage)
		if base == nil {
			return fmt.Errorf("build: line %d: stage %q not built yet (internal scheduling error)",
				ins.Line, st.Base)
		}
	} else {
		if b.opt.Store == nil {
			return fmt.Errorf("build: no image store configured")
		}
		var ok bool
		base, ok = b.opt.Store.GetContext(b.ctx, ref)
		if !ok {
			// Disambiguate: a cancelled context aborts the backing read,
			// which looks like a miss from here.
			if cerr := b.ctx.Err(); cerr != nil {
				return fmt.Errorf("build: %w", cerr)
			}
			return fmt.Errorf("build: base image %q not in storage", ref)
		}
	}
	if b.opt.World == nil {
		return fmt.Errorf("build: no package world configured")
	}
	distro := base.Config.Distro()
	reg, err := b.opt.World.Toolchain(distro)
	if err != nil {
		return fmt.Errorf("build: line %d: %w", ins.Line, err)
	}

	// Unprivileged unpack: flatten the layers, then re-own everything to
	// the invoking user — exactly what ch-image's storage directory
	// holds, and why the container needs emulation to chown at all. The
	// store memoises the unpacked chain; we get a private clone.
	fs, err := b.opt.Store.FlattenContext(b.ctx, base)
	if err != nil {
		return fmt.Errorf("build: flatten %s: %w", ref, err)
	}
	fs.ChownAll(buildUID, buildUID)

	k := simos.NewKernel()
	k.Tracer = b.opt.Tracer
	p := k.NewInitProc(simos.Mount{FS: vfs.New(), Owner: k.InitNS()}, buildUID, buildUID)
	if err := container.Enter(p, container.Options{Type: container.TypeIII, RootFS: fs}); err != nil {
		return fmt.Errorf("build: container setup: %w", err)
	}
	p.SetRegistry(reg)

	switch b.opt.Force {
	case ForceNone:
	case ForceSeccomp:
		if _, err := rootemu.Install(p, b.opt.FilterConfig); err != nil {
			return fmt.Errorf("build: %w", err)
		}
	case ForceFakeroot:
		b.fr = rootemu.AttachFakeroot(p)
	case ForceProot:
		b.pr = rootemu.AttachPRoot(p)
	default:
		return fmt.Errorf("build: unknown force mode %d", int(b.opt.Force))
	}

	b.k, b.p, b.fs = k, p, fs
	name := b.opt.Tag
	if name == "" {
		if b.stageImgs != nil {
			// Intermediate stage of a multi-stage build: a deterministic
			// internal name (never tagged into the store).
			name = "stage-" + stageLabel(st)
		} else {
			name = ref + "+build"
		}
	}
	b.cur = base.Clone(name)
	for _, kv := range b.cur.Config.Env {
		if key, v, ok := strings.Cut(kv, "="); ok {
			b.env[key] = v
		}
	}
	snap, err := tarutil.NewSnapshotter(fs)
	if err != nil {
		return fmt.Errorf("build: snapshot: %w", err)
	}
	b.snap = snap
	b.chainKey = chainStart(base, distro, b.opt)
	return nil
}

// stepRun executes one RUN instruction inside the container, applying the
// §5 apt workaround when the zero-consistency filter is active.
func (b *builder) stepRun(ins dockerfile.Instruction) error {
	var argv []string
	modified := 0
	rewrite := b.opt.Force == ForceSeccomp && !b.opt.DisableAptWorkaround
	desc := "RUN\x00"
	if len(ins.ExecForm) > 0 {
		argv = append([]string{}, ins.ExecForm...)
		// The §5 workaround applies to exec form too: apt invoked
		// directly still verifies its privilege drop.
		if rewrite && len(argv) > 0 && aptCommand(argv[0]) && !hasSandboxOption(argv) {
			argv = append(argv[:1:1], append([]string{"-o", "APT::Sandbox::User=root"}, argv[1:]...)...)
			modified = 1
		}
		desc += strings.Join(argv, "\x00")
	} else {
		line := ins.Raw
		if rewrite {
			line, modified = core.RewriteAptCommand(line)
		}
		argv = append(append([]string{}, b.shell...), line)
		desc += line
	}
	key := b.advance(desc)
	hit, err := b.replay(key, "RUN")
	if err != nil {
		return fmt.Errorf("build: line %d: %w", ins.Line, err)
	}
	if hit {
		return nil
	}
	b.res.Executed++
	// This builder owns the in-flight fill for key from here on: builders
	// sharing the cache block on it, so every failure path must abandon.
	recorded := false
	defer func() {
		if !recorded {
			b.abandon(key)
		}
	}()

	status, e := b.p.Exec(argv, b.runEnv(), nil, b.out, b.out)
	if e != errno.OK {
		return fmt.Errorf("build: line %d: RUN: exec: %s", ins.Line, e.Message())
	}
	if status != 0 {
		return fmt.Errorf("build: line %d: RUN exited with status %d", ins.Line, status)
	}
	b.res.ModifiedRuns += modified
	layer, err := b.commit()
	if err != nil {
		return err
	}
	b.record(key, layer, modified)
	recorded = true
	return nil
}

// stepCopy materialises COPY/ADD sources from the build context, or — for
// COPY --from — from an earlier stage's (or external image's) flattened
// tree.
func (b *builder) stepCopy(ins dockerfile.Instruction) error {
	if ins.From != "" {
		return b.stepCopyFrom(ins)
	}
	words := splitFlagless(b.expand(ins.Raw))
	if len(words) < 2 {
		return fmt.Errorf("build: line %d: %s needs source and destination", ins.Line, ins.Cmd)
	}
	srcs, dst := words[:len(words)-1], words[len(words)-1]

	desc := ins.Cmd + "\x00" + dst
	for _, s := range srcs {
		data, ok := b.opt.Context[s]
		if !ok {
			return fmt.Errorf("build: line %d: %s: %q not in build context", ins.Line, ins.Cmd, s)
		}
		desc += "\x00" + s + "\x00" + image.Digest(data)
	}
	key := b.advance(desc)
	hit, err := b.replay(key, ins.Cmd)
	if err != nil {
		return fmt.Errorf("build: line %d: %w", ins.Line, err)
	}
	if hit {
		return nil
	}
	b.res.Executed++
	// Fill owned (see stepRun): abandon on any failure path.
	recorded := false
	defer func() {
		if !recorded {
			b.abandon(key)
		}
	}()

	dstIsDir := dst == "." || strings.HasSuffix(dst, "/") || len(srcs) > 1 || b.isDir(dst)
	for _, s := range srcs {
		target := dst
		if dstIsDir {
			target = strings.TrimSuffix(dst, "/") + "/" + baseName(s)
		}
		target = b.abs(target)
		b.mkParents(target)
		if e := b.p.WriteFileAll(target, b.opt.Context[s], 0o644); e != errno.OK {
			return fmt.Errorf("build: line %d: %s %s: %s", ins.Line, ins.Cmd, target, e.Message())
		}
	}
	layer, err := b.commit()
	if err != nil {
		return err
	}
	b.record(key, layer, 0)
	recorded = true
	return nil
}

// stageImage returns the built image of stage idx, nil when unavailable.
func (b *builder) stageImage(idx int) *image.Image {
	if b.stageImgs == nil || idx < 0 || idx >= len(b.stageImgs) {
		return nil
	}
	return b.stageImgs[idx]
}

// copySource resolves a COPY --from reference to its source image: an
// earlier stage's built image, or an external image from the store.
func (b *builder) copySource(ins dockerfile.Instruction) (*image.Image, error) {
	if ins.FromStage >= 0 {
		img := b.stageImage(ins.FromStage)
		if img == nil {
			return nil, fmt.Errorf("stage %q not built yet (internal scheduling error)", ins.From)
		}
		return img, nil
	}
	if b.opt.Store == nil {
		return nil, fmt.Errorf("no image store configured")
	}
	ref := b.expand(ins.From)
	img, ok := b.opt.Store.GetContext(b.ctx, ref)
	if !ok {
		if cerr := b.ctx.Err(); cerr != nil {
			return nil, cerr
		}
		return nil, fmt.Errorf("--from image %q not in storage", ref)
	}
	return img, nil
}

// stepCopyFrom materialises COPY --from=<stage|image> sources from the
// source's flattened tree, read through the store's per-chain snapshot
// memoisation: read-only shared entries, no re-walk of the source VFS. The
// cache key folds in the source image's chain digest, so editing an
// earlier stage invalidates every dependent COPY --from replay even when
// this stage's own text is unchanged.
func (b *builder) stepCopyFrom(ins dockerfile.Instruction) error {
	words := splitFlagless(b.expand(ins.Raw))
	if len(words) < 2 {
		return fmt.Errorf("build: line %d: COPY needs source and destination", ins.Line)
	}
	srcs, dst := words[:len(words)-1], words[len(words)-1]
	src, err := b.copySource(ins)
	if err != nil {
		return fmt.Errorf("build: line %d: COPY: %w", ins.Line, err)
	}

	// The key needs only the source's chain digest; a warm replay must
	// not pay (or memoise) the source tree's flatten at all.
	desc := "COPY\x00from=" + image.ChainDigest(src.Layers) + "\x00" + dst
	for _, s := range srcs {
		desc += "\x00" + s
	}
	key := b.advance(desc)
	hit, err := b.replay(key, "COPY")
	if err != nil {
		return fmt.Errorf("build: line %d: %w", ins.Line, err)
	}
	if hit {
		return nil
	}
	b.res.Executed++
	// Fill owned (see stepRun): abandon on any failure path.
	recorded := false
	defer func() {
		if !recorded {
			b.abandon(key)
		}
	}()

	entries, err := b.opt.Store.FlattenedEntriesContext(b.ctx, src)
	if err != nil {
		return fmt.Errorf("build: line %d: COPY --from=%s: %w", ins.Line, ins.From, err)
	}
	for _, s := range srcs {
		if err := b.copyTree(entries, s, dst, len(srcs) > 1, ins); err != nil {
			return err
		}
	}
	layer, err := b.commit()
	if err != nil {
		return err
	}
	b.record(key, layer, 0)
	recorded = true
	return nil
}

// copyTree copies one --from source path — a file, symlink or directory —
// into the rootfs. A directory source copies its contents under dst, as
// Docker does; the directory itself is not copied.
func (b *builder) copyTree(entries []tarutil.Entry, src, dst string, multi bool, ins dockerfile.Instruction) error {
	sp := path.Clean("/" + src)
	root := findEntry(entries, sp)
	if root == nil {
		return fmt.Errorf("build: line %d: COPY --from=%s: %q not found in source image",
			ins.Line, ins.From, src)
	}
	if root.Stat.Type == vfs.TypeDir {
		base := b.abs(strings.TrimSuffix(dst, "/"))
		b.mkParents(base) // ancestors only: a fresh base must get the source mode
		if !b.isDir(base) {
			if errn := b.p.Mkdir(base, root.Stat.Mode); errn != errno.OK {
				return fmt.Errorf("build: line %d: COPY mkdir %s: %s", ins.Line, base, errn.Message())
			}
		}
		prefix := sp + "/"
		if sp == "/" {
			prefix = "/"
		}
		for i := range entries {
			e := &entries[i]
			if e.Path == sp || !strings.HasPrefix(e.Path, prefix) {
				continue
			}
			target := base + "/" + strings.TrimPrefix(e.Path, prefix)
			if err := b.copyEntry(e, target, ins); err != nil {
				return err
			}
		}
		return nil
	}
	target := dst
	if dst == "." || strings.HasSuffix(dst, "/") || multi || b.isDir(dst) {
		target = strings.TrimSuffix(dst, "/") + "/" + baseName(sp)
	}
	target = b.abs(target)
	b.mkParents(target)
	return b.copyEntry(root, target, ins)
}

// copyEntry writes one source entry at target through the container
// process, so — exactly like a COPY from the build context — the copied
// tree belongs to the unprivileged build user while bytes and permission
// bits are preserved.
func (b *builder) copyEntry(e *tarutil.Entry, target string, ins dockerfile.Instruction) error {
	switch e.Stat.Type {
	case vfs.TypeDir:
		if !b.isDir(target) {
			if errn := b.p.Mkdir(target, e.Stat.Mode); errn != errno.OK {
				return fmt.Errorf("build: line %d: COPY mkdir %s: %s", ins.Line, target, errn.Message())
			}
		}
	case vfs.TypeSymlink:
		b.p.Unlink(target) // replace any existing link target
		if errn := b.p.Symlink(e.Target, target); errn != errno.OK {
			return fmt.Errorf("build: line %d: COPY symlink %s: %s", ins.Line, target, errn.Message())
		}
	case vfs.TypeRegular:
		// Entries are shared read-only across every consumer of the
		// flatten memoisation; the write must not retain them.
		data := append([]byte(nil), e.Data...)
		if errn := b.p.WriteFileAll(target, data, e.Stat.Mode); errn != errno.OK {
			return fmt.Errorf("build: line %d: COPY write %s: %s", ins.Line, target, errn.Message())
		}
		b.p.Chmod(target, e.Stat.Mode) // an existing file keeps its old mode on write
	default:
		// Device nodes and FIFOs are skipped: the copy runs as the
		// unprivileged build user, which cannot mknod them.
	}
	return nil
}

// findEntry locates path in a canonical snapshot (entries sorted parents
// before children). The scan is linear: source trees are small and the
// snapshot itself was already paid for by the flatten memoisation.
func findEntry(entries []tarutil.Entry, p string) *tarutil.Entry {
	for i := range entries {
		if entries[i].Path == p {
			return &entries[i]
		}
	}
	return nil
}

func (b *builder) stepEnv(ins dockerfile.Instruction) error {
	kvs, err := dockerfile.KeyValues(ins.Raw)
	if err != nil {
		return fmt.Errorf("build: line %d: %w", ins.Line, err)
	}
	for _, k := range sortedKeys(kvs) {
		v := b.expand(kvs[k])
		b.env[k] = v
		b.vars[k] = v
	}
	b.chainKey = chain(b.chainKey, "ENV\x00"+ins.Raw)
	return nil
}

func (b *builder) stepArg(ins dockerfile.Instruction) error {
	kvs, err := dockerfile.KeyValues(ins.Raw)
	if err != nil {
		return fmt.Errorf("build: line %d: %w", ins.Line, err)
	}
	for _, k := range sortedKeys(kvs) {
		v := kvs[k]
		if o, ok := b.opt.BuildArgs[k]; ok {
			v = o
		}
		b.vars[k] = b.expand(v)
	}
	b.chainKey = chain(b.chainKey, "ARG\x00"+ins.Raw+"\x00"+fmt.Sprint(b.opt.BuildArgs))
	return nil
}

func (b *builder) stepWorkdir(ins dockerfile.Instruction) error {
	dir := b.abs(b.expand(ins.Raw))
	b.mkParents(dir + "/.")
	if e := b.p.Chdir(dir); e != errno.OK {
		return fmt.Errorf("build: line %d: WORKDIR %s: %s", ins.Line, dir, e.Message())
	}
	b.cur.Config.WorkingDir = dir
	b.chainKey = chain(b.chainKey, "WORKDIR\x00"+dir)
	_, err := b.commit() // the created directories belong to a layer
	return err
}

func (b *builder) stepLabel(ins dockerfile.Instruction) error {
	kvs, err := dockerfile.KeyValues(ins.Raw)
	if err != nil {
		return fmt.Errorf("build: line %d: %w", ins.Line, err)
	}
	if b.cur.Config.Labels == nil {
		b.cur.Config.Labels = map[string]string{}
	}
	for k, v := range kvs {
		b.cur.Config.Labels[k] = b.expand(v)
	}
	b.chainKey = chain(b.chainKey, "LABEL\x00"+ins.Raw)
	return nil
}

// commandWords renders CMD/ENTRYPOINT into argv form.
func (b *builder) commandWords(ins dockerfile.Instruction) []string {
	if len(ins.ExecForm) > 0 {
		return ins.ExecForm
	}
	return append(append([]string{}, b.shell...), ins.Raw)
}

// commit collects the rootfs changes since the last committed step and
// appends any delta as a new layer. The snapshotter walks only dirty
// subtrees (vfs generation tracking), so an instruction that touched three
// files pays for three files, not the whole tree. It returns the packed
// layer bytes (nil when the step changed nothing).
func (b *builder) commit() ([]byte, error) {
	diff, err := b.snap.Advance(b.fs)
	if err != nil {
		return nil, fmt.Errorf("build: snapshot: %w", err)
	}
	if len(diff) == 0 {
		return nil, nil
	}
	data, err := tarutil.Pack(diff)
	if err != nil {
		return nil, fmt.Errorf("build: pack layer: %w", err)
	}
	b.cur.Layers = append(b.cur.Layers, image.Layer{Digest: image.Digest(data), Data: data})
	return data, nil
}

// replay applies a cached step if present: the stored layer is unpacked
// onto the rootfs and appended to the image without executing anything.
// A layer that fails to unpack is an error, not a miss — by then the
// rootfs may hold a partial apply, and re-executing on it would bake the
// damage into a fresh layer.
//
// Under a shared cache (build.Pool) a miss may find the same step already
// executing in another builder; replay then blocks until that builder
// records its result and replays it like any other hit. On a true miss
// the builder owns the fill: it must end the step with record (success)
// or abandon (failure) so waiting builders are released.
func (b *builder) replay(key, cmd string) (bool, error) {
	if b.opt.Cache == nil {
		return false, nil
	}
	ent, hit, _ := b.opt.Cache.getOrBegin(b.ctx, key)
	if !hit {
		return false, nil
	}
	fmt.Fprintf(b.out, "    (cached)\n")
	if len(ent.layer) > 0 {
		// The handed-out layer is private: the image under construction
		// escapes to the caller as Result.Image, and mutations there must
		// not reach the shared cache entry.
		layer := append([]byte(nil), ent.layer...)
		// ApplyLayer unpacks and reconciles the tracked snapshot in one
		// O(layer) pass — no full re-walk of the tree it just changed.
		if err := b.snap.ApplyLayer(b.fs, layer); err != nil {
			return false, fmt.Errorf("%s: corrupt cache layer: %w", cmd, err)
		}
		b.cur.Layers = append(b.cur.Layers, image.Layer{Digest: image.Digest(layer), Data: layer})
	}
	b.res.ModifiedRuns += ent.modified
	b.res.CacheHits++
	return true, nil
}

// record stores a finished step in the cache, releasing any builders
// blocked on the in-flight fill.
func (b *builder) record(key string, layer []byte, modified int) {
	if b.opt.Cache != nil {
		b.opt.Cache.complete(b.ctx, key, cacheEntry{layer: layer, modified: modified})
	}
}

// abandon gives up a fill after the step failed, waking blocked builders
// so one of them can execute the step instead.
func (b *builder) abandon(key string) {
	if b.opt.Cache != nil {
		b.opt.Cache.abandon(key)
	}
}

// advance folds a step descriptor into the running chain key and returns
// the step's cache key.
func (b *builder) advance(desc string) string {
	b.chainKey = chain(b.chainKey, desc)
	return b.chainKey
}

// runEnv builds the environment RUN children see: image ENV plus ARGs.
func (b *builder) runEnv() map[string]string {
	env := map[string]string{}
	for k, v := range b.vars {
		env[k] = v
	}
	for k, v := range b.env {
		env[k] = v
	}
	if env["PATH"] == "" {
		env["PATH"] = "/usr/local/sbin:/usr/local/bin:/usr/sbin:/usr/bin:/sbin:/bin"
	}
	return env
}

func (b *builder) expand(s string) string { return dockerfile.Expand(s, b.vars) }

// abs resolves a destination against the current working directory.
func (b *builder) abs(p string) string {
	if strings.HasPrefix(p, "/") {
		return p
	}
	cwd, _ := b.p.Getcwd()
	if cwd == "/" || cwd == "" {
		return "/" + strings.TrimPrefix(p, "./")
	}
	return cwd + "/" + strings.TrimPrefix(p, "./")
}

func (b *builder) isDir(p string) bool {
	st, e := b.p.Stat(b.abs(p))
	return e == errno.OK && st.Type == vfs.TypeDir
}

// mkParents creates missing ancestors of path (the final component is not
// created).
func (b *builder) mkParents(path string) {
	comps := strings.Split(strings.Trim(path, "/"), "/")
	cur := ""
	for _, c := range comps[:len(comps)-1] {
		if c == "" {
			continue
		}
		cur += "/" + c
		b.p.Mkdir(cur, 0o755)
	}
}

// aptCommand reports whether an exec-form argv[0] invokes apt/apt-get.
func aptCommand(word string) bool {
	base := baseName(word)
	return base == "apt" || base == "apt-get"
}

// hasSandboxOption reports whether an apt argv already configures the
// sandbox user (never inject twice).
func hasSandboxOption(argv []string) bool {
	for _, a := range argv {
		if strings.Contains(a, "APT::Sandbox::User") {
			return true
		}
	}
	return false
}

func baseName(p string) string {
	if i := strings.LastIndexByte(p, '/'); i >= 0 {
		return p[i+1:]
	}
	return p
}

// splitFlagless splits on whitespace, dropping --flags (e.g. --chown=,
// which the simulation has no use for: the builder is unprivileged).
func splitFlagless(s string) []string {
	var out []string
	for _, w := range strings.Fields(s) {
		if strings.HasPrefix(w, "--") {
			continue
		}
		out = append(out, w)
	}
	return out
}

func sortedKeys(m map[string]string) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func envList(m map[string]string) []string {
	out := make([]string, 0, len(m))
	for _, k := range sortedKeys(m) {
		out = append(out, k+"="+m[k])
	}
	return out
}

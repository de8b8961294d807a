// The parallel build farm. The paper's argument is that seccomp root
// emulation makes unprivileged builds cheap enough to run everywhere at
// once; Pool is the "at once": N independent Dockerfile builds, each with
// its own simos kernel and VFS, all sharing one instruction Cache and one
// image.Store. The shared layers are single-flight (Cache.getOrBegin,
// Store.flattened), so identical work submitted N times executes once and
// replays N−1 times — the pool's wall time approaches the cost of the
// distinct work, not the submitted work.
package build

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
)

// Job is one build submitted to a Pool.
type Job struct {
	// Name identifies the job in its JobResult; defaults to Options.Tag,
	// then to "job-<index>".
	Name string

	// Dockerfile is the build text.
	Dockerfile string

	// Options configures the build. Store, World and Cache are typically
	// shared across the pool's jobs — that sharing is the point — but any
	// job may override them. A nil Output is replaced with a private
	// buffer whose contents land in JobResult.Transcript.
	Options Options

	// stage, when set by the multi-stage driver, makes this job execute
	// one stage of an already-parsed Dockerfile instead of Dockerfile.
	stage *stageJob
}

// JobResult is the outcome of one pooled build, in submission order.
type JobResult struct {
	// Name echoes the job identity.
	Name string

	// Result is the build's result; non-nil even on failure or
	// cancellation (it carries the counters accrued up to the point the
	// build stopped). Nil only when the job never started — skipped by
	// fail-fast or pre-empted by a cancelled context.
	Result *Result

	// Err is the build error, nil on success. Skipped jobs report
	// ErrSkipped; cancelled jobs report an error wrapping
	// context.Canceled.
	Err error

	// Cancelled distinguishes a job stopped by context cancellation —
	// the caller's, or the pool's own fail-fast cancel — from a job that
	// genuinely failed. A cancelled in-flight job still carries the
	// partial Transcript and Result it accrued before stopping.
	Cancelled bool

	// Transcript is the captured build output when the job's Options.
	// Output was nil; empty otherwise (the caller's writer received it).
	// Cancelled and failed jobs keep the partial transcript they
	// produced — it is the evidence of where they stopped.
	Transcript string
}

// ErrSkipped marks jobs a fail-fast pool never started.
var ErrSkipped = errors.New("build: job skipped: pool failing fast")

// ErrNotServing reports a Submit against a pool that is not in service
// mode — never Started, or already Drained.
var ErrNotServing = errors.New("build: pool not serving")

// Pool runs batches of builds with bounded concurrency. It has two modes:
// RunContext executes one batch and returns when it is done, while
// Start/Submit/Drain turn the pool into a resident build service — Workers
// goroutines stay up between jobs and callers hand in work one job at a
// time (the ch-imaged daemon's mode). One Pool value uses one mode at a
// time; the zero value is a batch pool.
type Pool struct {
	// Workers bounds concurrent builds; <= 0 means one worker per job
	// in batch mode. Service mode requires Workers >= 1. Immutable once
	// the pool is in use.
	Workers int

	// FailFast cancels the pool after the first failure: queued unstarted
	// jobs report ErrSkipped, and in-flight sibling builds are actively
	// cancelled — each stops at its next instruction boundary and reports
	// Cancelled with its partial transcript. When false (collect-all),
	// every job runs and the aggregate error joins every failure.
	// Batch mode only; a service pool's jobs are independent.
	FailFast bool

	// wg tracks the resident service-mode workers; it synchronises
	// itself and so lives above mu.
	wg sync.WaitGroup

	// mu guards the service-mode state below it.
	mu       sync.Mutex
	serving  bool
	submit   chan *serviceJob
	stop     chan struct{}
	inFlight int
}

// serviceJob is one Submit-ted build travelling to a resident worker.
type serviceJob struct {
	ctx  context.Context
	job  Job
	done chan JobResult // buffered: the worker's send never blocks
}

// Start switches the pool into service mode: Workers resident goroutines
// consume Submit-ted jobs until Drain. Workers must be at least 1 — a
// service has no batch length to default to.
func (p *Pool) Start() error {
	if p.Workers < 1 {
		return fmt.Errorf("build: pool service mode needs Workers >= 1 (got %d)", p.Workers)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.serving {
		return fmt.Errorf("build: pool already serving")
	}
	p.serving = true
	p.submit = make(chan *serviceJob)
	p.stop = make(chan struct{})
	p.wg.Add(p.Workers)
	for w := 0; w < p.Workers; w++ {
		go p.serveLoop(p.submit, p.stop)
	}
	return nil
}

// serveLoop is one resident worker. The channels arrive as parameters so
// the loop never reads the mutex-guarded fields they came from.
func (p *Pool) serveLoop(submit <-chan *serviceJob, stop <-chan struct{}) {
	defer p.wg.Done()
	for {
		select {
		case <-stop:
			return
		case sj := <-submit:
			p.noteJob(1)
			res := runJob(sj.ctx, sj.job, "job")
			// Settle the count before delivering: a caller holding every
			// result must read InFlight() == 0.
			p.noteJob(-1)
			sj.done <- res
		}
	}
}

// noteJob adjusts the service-mode in-flight count.
func (p *Pool) noteJob(delta int) {
	mPoolInFlight.Add(int64(delta))
	p.mu.Lock()
	defer p.mu.Unlock()
	p.inFlight += delta
}

// Submit hands one job to a started pool and returns a channel that will
// carry its JobResult. Submit blocks until a resident worker accepts the
// job; cancelling ctx while waiting returns immediately with a channel
// already carrying the cancelled not-started result, exactly as a batch
// pool reports a job pre-empted by a dead context. The same ctx governs
// the build itself — cancel it to stop the job at its next instruction
// boundary.
func (p *Pool) Submit(ctx context.Context, job Job) (<-chan JobResult, error) {
	p.mu.Lock()
	serving, submit, stop := p.serving, p.submit, p.stop
	p.mu.Unlock()
	if !serving {
		return nil, ErrNotServing
	}
	sj := &serviceJob{ctx: ctx, job: job, done: make(chan JobResult, 1)}
	mPoolWaiting.Inc()
	defer mPoolWaiting.Dec()
	select {
	case submit <- sj:
		return sj.done, nil
	case <-stop:
		return nil, ErrNotServing
	case <-ctx.Done():
		sj.done <- runJob(ctx, job, "job")
		return sj.done, nil
	}
}

// InFlight reports how many service-mode jobs are executing right now; a
// drained or idle pool reports 0 — the daemon's no-leak check.
func (p *Pool) InFlight() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.inFlight
}

// Drain leaves service mode: new Submits fail with ErrNotServing, the
// resident workers finish the job they hold and exit, and Drain returns
// once all of them have. Draining a pool that is not serving is a no-op.
func (p *Pool) Drain() {
	p.mu.Lock()
	if !p.serving {
		p.mu.Unlock()
		return
	}
	p.serving = false
	stop := p.stop
	p.mu.Unlock()
	close(stop)
	p.wg.Wait()
}

// jobName picks the reported identity of a job: Name, then Options.Tag,
// then the caller's positional fallback.
func jobName(job Job, fallback string) string {
	if job.Name != "" {
		return job.Name
	}
	if job.Options.Tag != "" {
		return job.Options.Tag
	}
	return fallback
}

// runJob executes one job under ctx — the shared heart of the batch
// worker loop and the service-mode workers. A ctx already dead on entry
// reports the cancelled not-started shape without running anything; a
// job whose Options.Output is nil gets a private buffer whose contents
// land in JobResult.Transcript.
func runJob(ctx context.Context, job Job, fallback string) JobResult {
	name := jobName(job, fallback)
	if ctx.Err() != nil {
		return JobResult{
			Name:      name,
			Err:       fmt.Errorf("build: job %s not started: %w", name, ctx.Err()),
			Cancelled: true,
		}
	}
	var buf *bytes.Buffer
	opt := job.Options
	if opt.Output == nil {
		buf = &bytes.Buffer{}
		opt.Output = buf
	}
	var res *Result
	var err error
	if job.stage != nil {
		res, _, err = buildOneStage(ctx, job.stage.file, job.stage.idx, job.stage.imgs, opt)
	} else {
		res, err = BuildContext(ctx, job.Dockerfile, opt)
	}
	r := JobResult{Name: name, Result: res, Err: err}
	r.Cancelled = err != nil && errors.Is(err, context.Canceled)
	if buf != nil {
		r.Transcript = buf.String()
	}
	return r
}

// RunContext executes jobs and returns one JobResult per job, in
// submission order, plus the aggregate error (errors.Join of the per-job
// failures). Results are complete even when the error is non-nil — the
// caller decides what a partial batch is worth. Cancelling ctx stops
// every in-flight build at its next instruction boundary; jobs not yet
// started report Cancelled without running.
func (p *Pool) RunContext(ctx context.Context, jobs []Job) ([]JobResult, error) {
	results := make([]JobResult, len(jobs))
	if len(jobs) == 0 {
		return results, nil
	}
	workers := p.Workers
	if workers <= 0 || workers > len(jobs) {
		workers = len(jobs)
	}

	// runCtx is the pool's own cancellation scope: the caller's ctx plus
	// fail-fast. The first failure cancels it, which both stops dispatch
	// and actively interrupts the sibling builds already running.
	runCtx, cancelRun := context.WithCancel(ctx)
	defer cancelRun()

	var (
		wg      sync.WaitGroup
		indices = make(chan int)
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range indices {
				job := jobs[i]
				fallback := fmt.Sprintf("job-%d", i)
				if runCtx.Err() != nil && ctx.Err() == nil {
					// Fail-fast tripped by a sibling's failure. (A dead
					// caller ctx instead falls through to runJob, which
					// reports the cancelled not-started shape.)
					results[i] = JobResult{Name: jobName(job, fallback), Err: ErrSkipped}
					continue
				}
				results[i] = runJob(runCtx, job, fallback)
				if results[i].Err != nil && p.FailFast {
					cancelRun()
				}
			}
		}()
	}
	for i := range jobs {
		indices <- i
	}
	close(indices)
	wg.Wait()

	var errs []error
	for _, r := range results {
		if r.Err != nil {
			name := r.Name
			errs = append(errs, fmt.Errorf("%s: %w", name, r.Err))
		}
	}
	return results, errors.Join(errs...)
}

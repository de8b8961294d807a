package build

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Cancellation, deadlines and fail-fast: builds stop at instruction
// boundaries, pools actively cancel their in-flight siblings, and
// JobResult distinguishes cancelled work from failed work.

// Acceptance: cancelling a cold 16-job pool returns every worker within
// one instruction boundary. Each job is parked at its first boundary by
// the test gate; after the cancel, no job may cross another boundary —
// the gate counter stays at exactly one crossing per job.
func TestPoolCancelReturnsWithinOneBoundary(t *testing.T) {
	const n = 16
	w, s := fixtures(t)
	cache := NewCache()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var boundaries atomic.Int64
	var parked sync.WaitGroup
	parked.Add(n)
	gate := func(gctx context.Context, cmd string) {
		boundaries.Add(1)
		parked.Done()
		<-gctx.Done()
	}

	jobs := make([]Job, n)
	for i := range jobs {
		opt := Options{
			Tag: "cancelled", Force: ForceSeccomp,
			Store: s, World: w, Cache: cache,
			testStepGate: gate,
		}
		jobs[i] = Job{Name: "job", Dockerfile: echoDockerfile, Options: opt}
	}

	go func() {
		parked.Wait() // every worker is at its first boundary
		cancel()
	}()
	results, err := (&Pool{Workers: n}).RunContext(ctx, jobs)
	if err == nil {
		t.Fatal("cancelled pool must report an error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("aggregate error should wrap context.Canceled: %v", err)
	}
	for i, r := range results {
		if !r.Cancelled {
			t.Errorf("job %d: Cancelled = false, err = %v", i, r.Err)
		}
		if !errors.Is(r.Err, context.Canceled) {
			t.Errorf("job %d: err does not wrap context.Canceled: %v", i, r.Err)
		}
		if r.Result == nil || r.Result.Executed != 0 {
			t.Errorf("job %d: executed past the cancel: %+v", i, r.Result)
		}
	}
	if got := boundaries.Load(); got != n {
		t.Fatalf("boundary crossings = %d, want exactly %d (one per worker)", got, n)
	}
}

// Satellite: a fail-fast pool actively cancels its in-flight siblings —
// the victim stops at its next instruction boundary, reports Cancelled
// (not failed, not skipped), and keeps the partial transcript it accrued.
func TestPoolFailFastCancelsInFlightSiblings(t *testing.T) {
	w, s := fixtures(t)
	cache := NewCache()

	// Rendezvous: the failer may only fail once the victim is parked
	// in-flight, so the victim can never be merely "not started".
	victimParked := make(chan struct{})
	var once sync.Once

	failerOpt := Options{
		Tag: "failer", Force: ForceSeccomp, Store: s, World: w, Cache: cache,
		testStepGate: func(gctx context.Context, cmd string) {
			if cmd == "RUN" {
				<-victimParked
			}
		},
	}
	victimOpt := Options{
		Tag: "victim", Force: ForceSeccomp, Store: s, World: w, Cache: cache,
		testStepGate: func(gctx context.Context, cmd string) {
			if cmd == "RUN" {
				once.Do(func() { close(victimParked) })
				<-gctx.Done()
			}
		},
	}
	jobs := []Job{
		{Name: "failer", Dockerfile: "FROM alpine:3.19\nRUN no-such-command-anywhere\n", Options: failerOpt},
		{Name: "victim", Dockerfile: echoDockerfile, Options: victimOpt},
	}
	results, err := (&Pool{Workers: 2, FailFast: true}).RunContext(context.Background(), jobs)
	if err == nil {
		t.Fatal("want aggregate error from the failing job")
	}
	failer, victim := results[0], results[1]
	if failer.Cancelled || failer.Err == nil {
		t.Fatalf("failer should be a genuine failure: cancelled=%v err=%v", failer.Cancelled, failer.Err)
	}
	if !victim.Cancelled {
		t.Fatalf("victim should be cancelled by fail-fast, got err=%v", victim.Err)
	}
	if errors.Is(victim.Err, ErrSkipped) {
		t.Fatal("victim was in flight; it must not report ErrSkipped")
	}
	if !errors.Is(victim.Err, context.Canceled) {
		t.Fatalf("victim err should wrap context.Canceled: %v", victim.Err)
	}
	// S2: the cancelled job's partial transcript is flushed — the FROM
	// line it executed before parking is the evidence of where it stopped.
	if !strings.Contains(victim.Transcript, "FROM") {
		t.Fatalf("victim partial transcript not flushed: %q", victim.Transcript)
	}
	if victim.Result == nil {
		t.Fatal("cancelled in-flight job must keep its partial Result")
	}
}

// Acceptance: a build with Options.BuildTimeout fails with a deadline
// error at the next instruction boundary — it does not hang.
func TestBuildTimeoutFailsWithDeadlineError(t *testing.T) {
	w, s := fixtures(t)
	opt := Options{
		Tag: "t:1", Force: ForceSeccomp, Store: s, World: w,
		BuildTimeout: 20 * time.Millisecond,
		testStepGate: func(gctx context.Context, cmd string) {
			if cmd == "RUN" {
				<-gctx.Done() // hold the build past its deadline
			}
		},
	}
	res, err := BuildContext(context.Background(), echoDockerfile, opt)
	if err == nil {
		t.Fatal("build should fail its deadline")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err should wrap context.DeadlineExceeded: %v", err)
	}
	if res == nil {
		t.Fatal("failed build must still return a Result")
	}
}

// Options.InstrTimeout bounds each instruction: an instruction that
// overruns its own deadline fails the build with an error naming it,
// while the whole-build context stays alive.
func TestInstrTimeoutFailsOverrunningInstruction(t *testing.T) {
	w, s := fixtures(t)
	opt := Options{
		Tag: "t:1", Force: ForceSeccomp, Store: s, World: w,
		// Already expired when the first instruction runs: the ARG step
		// itself succeeds, and the boundary check converts the overrun
		// into a per-instruction deadline failure.
		InstrTimeout: time.Nanosecond,
	}
	res, err := BuildContext(context.Background(), "ARG V=1\nFROM alpine:3.19\n", opt)
	if err == nil {
		t.Fatal("instruction should overrun its deadline")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err should wrap context.DeadlineExceeded: %v", err)
	}
	if !strings.Contains(err.Error(), "per-instruction deadline") {
		t.Fatalf("err should name the per-instruction deadline: %v", err)
	}
	if res == nil {
		t.Fatal("failed build must still return a Result")
	}
}

// A pre-cancelled context stops the build before its first instruction.
func TestBuildContextPreCancelled(t *testing.T) {
	w, s := fixtures(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := BuildContext(ctx, echoDockerfile,
		Options{Tag: "c:1", Force: ForceSeccomp, Store: s, World: w})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if res == nil || res.Executed != 0 {
		t.Fatalf("nothing may execute under a dead context: %+v", res)
	}
}

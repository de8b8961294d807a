//go:build darwin || dragonfly || freebsd || linux || netbsd || openbsd

package cas

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// Two handles in one process open the lock file separately, so flock
// treats them like two processes: a maintenance pass through one must
// fail with ErrBusy while the other keeps the store open.
func TestGCBusyWhileSecondHandleOpen(t *testing.T) {
	root := t.TempDir()
	d1, _ := openT(t, root)
	if err := d1.PutStep(ctx, "warm", []byte("layer"), 0); err != nil {
		t.Fatal(err)
	}

	d2, _, err := Open(root, WithLockWait(50*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()

	if _, err := d2.GC(ctx, Budget{}); !errors.Is(err, ErrBusy) {
		t.Fatalf("GC with peer open: err = %v, want ErrBusy", err)
	}
	if err := d2.Reset(ctx); !errors.Is(err, ErrBusy) {
		t.Fatalf("Reset with peer open: err = %v, want ErrBusy", err)
	}

	// A failed maintenance attempt must leave the handle fully usable:
	// the exclusive conversion re-acquired its shared hold.
	if err := d2.PutStep(ctx, "after-busy", []byte("more"), 0); err != nil {
		t.Fatalf("append after ErrBusy: %v", err)
	}

	// Once the peer closes, the same call succeeds.
	if err := d1.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := d2.GC(ctx, Budget{}); err != nil {
		t.Fatalf("GC after peer closed: %v", err)
	}
	if _, ok := d2.Step("after-busy"); ok {
		t.Fatal("untagged step survived a full-sweep GC")
	}
}

// Open-time compaction never waits for peers: with another handle
// holding the store open, as a resident daemon always does, opening a
// torn journal degrades at once instead of waiting out the lock. The
// torn line is quarantined, appends keep working, and a later open with
// no peer compacts the journal for good.
func TestDamagedOpenWithPeerDoesNotWait(t *testing.T) {
	root := t.TempDir()
	d1, _ := openT(t, root)
	if err := d1.PutStep(ctx, "good", []byte("bytes"), 0); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-append while d1 holds the store open.
	j := filepath.Join(root, "journal")
	f, err := os.OpenFile(j, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprint(f, `deadbeef {"t":"step","key":"half`)
	f.Close()

	start := time.Now()
	d2, rep, err := Open(root)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if took := time.Since(start); took > DefaultLockWait/10 {
		t.Fatalf("damaged open with a peer took %v; it must not wait for the lock", took)
	}
	if rep.JournalQuarantined != 1 {
		t.Fatalf("quarantined %d lines, want 1 (%+v)", rep.JournalQuarantined, rep)
	}
	if _, ok := d2.Step("good"); !ok {
		t.Fatal("intact record lost")
	}
	if err := d2.PutStep(ctx, "after", nil, 0); err != nil {
		t.Fatalf("append after degraded open: %v", err)
	}
	if err := d1.Close(); err != nil {
		t.Fatal(err)
	}
	if err := d2.Close(); err != nil {
		t.Fatal(err)
	}

	// The degraded open left the fragment as a standalone bad line; the
	// first uncontended open quarantines it once more and compacts.
	d3, _ := openT(t, root)
	if err := d3.Close(); err != nil {
		t.Fatal(err)
	}
	if data, err := os.ReadFile(j); err != nil || strings.Contains(string(data), "half") {
		t.Fatalf("uncontended open did not compact the journal (err %v):\n%s", err, data)
	}
	d4, rep4 := openT(t, root)
	if rep4.Quarantined() {
		t.Fatalf("damage reported after compaction: %+v", rep4)
	}
	for _, key := range []string{"good", "after"} {
		if _, ok := d4.Step(key); !ok {
			t.Fatalf("record %q lost across degraded open and compaction", key)
		}
	}
}

// A GC that starts before the peer closes must block on the store lock
// and then proceed, rather than interleaving with the peer's appends.
func TestGCWaitsForPeerClose(t *testing.T) {
	root := t.TempDir()
	d1, _ := openT(t, root)
	if err := d1.PutStep(ctx, "warm", []byte("layer"), 0); err != nil {
		t.Fatal(err)
	}
	d2, _, err := Open(root, WithLockWait(10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()

	done := make(chan error, 1)
	go func() {
		_, err := d2.GC(ctx, Budget{})
		done <- err
	}()
	select {
	case err := <-done:
		t.Fatalf("GC returned (%v) while peer still held the store", err)
	case <-time.After(100 * time.Millisecond):
	}
	if err := d1.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("GC after peer close: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("GC never completed after peer closed")
	}
}

// TestFlockGCHelper is the child half of TestTwoProcessFlock: re-executed
// via the test binary, it opens the store named by CAS_FLOCK_ROOT with a
// short lock wait and reports through its exit code — 3 for ErrBusy,
// 0 for a successful GC, 1 for anything else.
func TestFlockGCHelper(t *testing.T) {
	root := os.Getenv("CAS_FLOCK_ROOT")
	if root == "" {
		t.Skip("helper: run by TestTwoProcessFlock only")
	}
	d, _, err := Open(root, WithLockWait(200*time.Millisecond))
	if err != nil {
		t.Logf("open: %v", err)
		os.Exit(1)
	}
	_, err = d.GC(ctx, Budget{})
	d.Close()
	switch {
	case errors.Is(err, ErrBusy):
		os.Exit(3)
	case err != nil:
		t.Logf("gc: %v", err)
		os.Exit(1)
	}
	os.Exit(0)
}

// The cross-process acceptance case: while this process holds the store
// open (shared lock), a second process's GC fails cleanly with ErrBusy;
// after Close it succeeds.
func TestTwoProcessFlock(t *testing.T) {
	root := t.TempDir()
	d, _ := openT(t, root)
	if err := d.PutStep(ctx, "warm", []byte("layer"), 0); err != nil {
		t.Fatal(err)
	}

	run := func() int {
		t.Helper()
		cmd := exec.Command(os.Args[0], "-test.run=^TestFlockGCHelper$", "-test.v")
		cmd.Env = append(os.Environ(), "CAS_FLOCK_ROOT="+root)
		out, err := cmd.CombinedOutput()
		if err == nil {
			return 0
		}
		var ee *exec.ExitError
		if errors.As(err, &ee) {
			return ee.ExitCode()
		}
		t.Fatalf("exec: %v\n%s", err, out)
		return -1
	}

	if code := run(); code != 3 {
		t.Fatalf("child GC with store held: exit %d, want 3 (ErrBusy)", code)
	}
	// The busy child must not have corrupted anything for us.
	if err := d.PutStep(ctx, "after-child", []byte("more"), 0); err != nil {
		t.Fatalf("append after child ErrBusy: %v", err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if code := run(); code != 0 {
		t.Fatalf("child GC with store released: exit %d, want 0", code)
	}
	// The child's full sweep dropped the untagged steps; reopening must
	// see a healthy (colder) store, not damage.
	d2, rep := openT(t, root)
	if rep.Quarantined() {
		t.Fatalf("store damaged after child GC: %+v", rep)
	}
	if _, ok := d2.Step("warm"); ok {
		t.Fatal("untagged step survived the child's full sweep")
	}
}

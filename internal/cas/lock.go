package cas

import (
	"context"
	"errors"
	"fmt"
	"os"
	"time"
)

// ErrBusy reports that an exclusive store operation (GC, Reset, journal
// compaction) could not take the store lock within its wait because
// another handle — usually another process — holds the store open.
// Nothing was modified; retry after the other process closes the store.
var ErrBusy = errors.New("cas: store locked by another handle")

// DefaultLockWait bounds how long exclusive operations wait for the
// store lock before failing with ErrBusy. Shared acquisition (Open)
// always blocks: the exclusive sections it can wait behind are short —
// one GC or compaction — while the converse wait (an exclusive taker
// behind an open build) lasts as long as the build, so only that
// direction needs a bound.
const DefaultLockWait = 60 * time.Second

// storeLock is the advisory cross-process lock on a store root, a
// flock(2) on DIR/lock. The protocol:
//
//   - every open handle holds the lock SHARED from Open to Close, so
//     appends and reads from any number of processes coexist;
//   - GC, Reset and journal compaction convert to EXCLUSIVE for the
//     critical section and convert back after, so a rewrite of the
//     journal (or a sweep of the blob directory) can never interleave
//     with another process's append — the writer either finishes before
//     the exclusive conversion is granted or opens after it releases.
//
// flock locks attach to the open file description, so two Dir handles
// in one process exclude each other exactly like two processes do. A
// failed nonblocking conversion may drop the held lock on the way (the
// kernel converts by unlock-then-lock), so every failure path here
// re-acquires the shared lock before returning.
//
// On platforms without flock (see lock_other.go) the lock degrades to a
// no-op and the store keeps the previous single-process guarantees.
type storeLock struct {
	f *os.File
}

// openLock opens (creating if absent) the lock file and acquires the
// shared lock, blocking until any exclusive holder releases.
func openLock(path string) (*storeLock, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("cas: lock: %w", err)
	}
	if err := flockShared(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("cas: lock: %w", err)
	}
	return &storeLock{f: f}, nil
}

// exclusive converts the held shared lock to exclusive, polling for up
// to wait (wait <= 0 tries once) or until ctx is done. On timeout it
// restores the shared lock, counts the refusal in ch_cas_busy_total and
// returns ErrBusy; on cancellation it does the same minus the count and
// returns the context error. The caller's handle stays fully usable
// either way. Only the operations whose ErrBusy reaches a caller (GC,
// Reset, orphaned-journal recompaction) come here; Open's opportunistic
// maintenance uses tryExclusive.
func (l *storeLock) exclusive(ctx context.Context, wait time.Duration) error {
	start := time.Now()
	deadline := start.Add(wait)
	for {
		ok, err := flockExclusiveNB(l.f)
		if err != nil {
			l.reshare()
			return fmt.Errorf("cas: lock: %w", err)
		}
		if ok {
			mFlockWaitSeconds.ObserveSince(start)
			return nil
		}
		if !time.Now().Before(deadline) {
			mFlockWaitSeconds.ObserveSince(start)
			mBusy.Inc()
			if err := l.reshare(); err != nil {
				return err
			}
			return ErrBusy
		}
		select {
		case <-ctx.Done():
			if err := l.reshare(); err != nil {
				return err
			}
			return fmt.Errorf("cas: lock: %w", ctx.Err())
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// tryExclusive makes one nonblocking exclusive conversion for Open's
// opportunistic maintenance (the tmp sweep, damaged-journal compaction).
// A refusal restores the shared lock and reports false; it is not
// counted as busy, because nothing failed: the open just leaves the
// maintenance to a later uncontended one.
func (l *storeLock) tryExclusive() (bool, error) {
	start := time.Now()
	ok, err := flockExclusiveNB(l.f)
	mFlockWaitSeconds.ObserveSince(start)
	switch {
	case err != nil:
		l.reshare()
		return false, fmt.Errorf("cas: lock: %w", err)
	case ok:
		return true, nil
	}
	return false, l.reshare()
}

// shared converts the lock back to shared after an exclusive section.
func (l *storeLock) shared() error {
	return l.reshare()
}

func (l *storeLock) reshare() error {
	if err := flockShared(l.f); err != nil {
		return fmt.Errorf("cas: lock: %w", err)
	}
	return nil
}

// close releases whatever lock is held and closes the file.
func (l *storeLock) close() error {
	return l.f.Close()
}

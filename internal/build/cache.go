package build

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"sync"

	"repro/internal/cas"
	"repro/internal/core"
	"repro/internal/image"
)

// Cache is the per-instruction build cache. Keys are content-addressed
// chains: each instruction's key folds in the full prefix of the build —
// base image, force mode, filter configuration, the apt-workaround flag,
// every earlier instruction, the digests of COPY sources and the chain
// digest of a COPY --from source image — so editing a mid-Dockerfile step
// invalidates that step and everything after it (editing an earlier stage
// invalidates its dependents' COPY --from steps), while leaving earlier
// steps warm.
//
// A hit replays the recorded filesystem layer instead of executing the
// instruction; the expensive RUNs (package installs under emulation) are
// skipped entirely on warm rebuilds.
//
// The cache is safe for concurrent builders (build.Pool) and deduplicates
// in-flight work: when two builders miss on the same key at the same
// time, exactly one executes the instruction; the other blocks until the
// result is recorded and then replays it as an ordinary hit, so the
// expensive step runs once however many builders race on it.
// A persistent cache (NewPersistentCache) is additionally backed by a
// cas.Dir: completed steps write through to the journal and blob store,
// and the journal's records rehydrate lazily — a key recorded by an
// earlier process costs one digest-verified blob read on first hit, and
// nothing at all if the build never reaches it.
type Cache struct {
	// dir is set once at construction (nil for a purely in-memory
	// cache) and never reassigned, so it lives above mu: loadStep reads
	// it without the lock while holding the key's flight.
	dir *cas.Dir

	mu      sync.Mutex
	entries map[string]cacheEntry
	flights map[string]*stepFlight
	hits    int
	misses  int

	lazy map[string]cas.Step // persisted entries not yet loaded

	// Write-through failures aggregate here (capped like the image
	// store's backing errors; overflow counted in persistDropped).
	persistErrs    []error
	persistDropped int
}

// persistErrCap bounds the aggregated write-through failure list.
const persistErrCap = 32

// stepFlight is one instruction being executed by some builder right now.
// Waiters block on done; the outcome field is written before the channel
// closes. An abandoned fill (the builder's step failed) wakes waiters with
// filled=false and they retry — one of them becomes the new filler.
type stepFlight struct {
	done   chan struct{}
	ent    cacheEntry
	filled bool
}

// cacheEntry is one completed instruction: the packed layer it produced
// (nil if it changed nothing) and the apt-workaround rewrites it counted.
type cacheEntry struct {
	layer    []byte
	modified int
}

// NewCache creates an empty instruction cache.
func NewCache() *Cache {
	return &Cache{entries: map[string]cacheEntry{}, flights: map[string]*stepFlight{}}
}

// NewPersistentCache creates an instruction cache backed by an open
// cas.Dir: every entry the Dir's journal holds is available (rehydrated
// lazily on first hit), and every step completed through this cache is
// persisted for the next invocation. Share one persistent cache across
// the builds of a process exactly like an in-memory one; it is equally
// safe under build.Pool.
func NewPersistentCache(d *cas.Dir) *Cache {
	c := NewCache()
	c.dir = d
	c.lazy = map[string]cas.Step{}
	for _, st := range d.Steps() {
		c.lazy[st.Key] = st
	}
	return c
}

// PersistErrs returns every recorded write-through failure (a copy),
// plus a trailing summary entry when failures past the cap were dropped;
// nil when every completed step reached the backing store. A failure
// leaves the on-disk cache colder, never wrong.
func (c *Cache) PersistErrs() []error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.persistErrs) == 0 {
		return nil
	}
	out := append([]error(nil), c.persistErrs...)
	if c.persistDropped > 0 {
		out = append(out, fmt.Errorf("build: %d further persistence failure(s) dropped", c.persistDropped))
	}
	return out
}

// notePersistErrLocked records one write-through failure. Callers hold c.mu.
func (c *Cache) notePersistErrLocked(err error) {
	if err == nil {
		return
	}
	if len(c.persistErrs) >= persistErrCap {
		c.persistDropped++
		return
	}
	c.persistErrs = append(c.persistErrs, err)
}

// loadStep reads a persisted entry's layer blob (digest-verified by the
// Dir on the way out). Called WITHOUT c.mu held — this is disk I/O, and
// the loading goroutine holds the key's flight instead, so other builders
// only wait on it for this key, never for the whole cache. A blob that
// fails verification was quarantined by the Dir; the entry is dropped and
// the step re-executes as an ordinary miss.
func (c *Cache) loadStep(ctx context.Context, st cas.Step) (cacheEntry, bool) {
	ent := cacheEntry{modified: st.Modified}
	if st.Layer != "" {
		var data []byte
		err := cas.DefaultRetry.Do(ctx, func() error {
			var rerr error
			data, rerr = c.dir.Blob(ctx, st.Layer)
			return rerr
		})
		if err != nil {
			return cacheEntry{}, false
		}
		ent.layer = data
	}
	return ent, true
}

// Stats reports lifetime hit/miss totals across all builds sharing the
// cache. Every replay — direct or after waiting out another builder's
// in-flight execution — counts one hit; every fill counts one miss, so
// hits+misses equals the cacheable steps attempted and hits equals the
// sum of Result.CacheHits across the sharing builds.
func (c *Cache) Stats() (hits, misses int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// Len reports the number of cached instructions, including persisted
// entries not yet rehydrated.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries) + len(c.lazy)
}

// getOrBegin is the single entry point for a builder reaching a cacheable
// step. Outcomes:
//
//	hit  == true:  ent is the recorded step; replay it.
//	fill == true:  the caller owns the execution and MUST finish with
//	               either complete (success) or abandon (failure).
//
// A caller that finds the key in flight blocks until the filler finishes;
// a completed fill returns as a hit, an abandoned one loops and contends
// to become the next filler.
func (c *Cache) getOrBegin(ctx context.Context, key string) (ent cacheEntry, hit, fill bool) {
	for {
		c.mu.Lock()
		if ent, ok := c.entries[key]; ok {
			c.hits++
			mCacheHits.Inc()
			c.mu.Unlock()
			return ent, true, false
		}
		if st, ok := c.lazy[key]; ok {
			// Rehydrate a persisted entry. The blob read happens outside
			// the lock under a flight for this key: concurrent builders on
			// the same key wait and replay, everyone else proceeds.
			delete(c.lazy, key)
			f := &stepFlight{done: make(chan struct{})}
			c.flights[key] = f
			c.mu.Unlock()
			ent, loaded := c.loadStep(ctx, st)
			c.mu.Lock()
			delete(c.flights, key)
			if loaded {
				c.entries[key] = ent
				c.hits++
				mCacheHits.Inc()
				c.mu.Unlock()
				f.ent, f.filled = ent, true
				close(f.done)
				return ent, true, false
			}
			// Corrupt on disk: wake any waiters unfilled and contend with
			// them for an ordinary fill.
			c.mu.Unlock()
			close(f.done)
			continue
		}
		if f, inflight := c.flights[key]; inflight {
			c.mu.Unlock()
			<-f.done
			if f.filled {
				c.mu.Lock()
				c.hits++
				mCacheHits.Inc()
				c.mu.Unlock()
				return f.ent, true, false
			}
			continue // abandoned: contend for the fill
		}
		c.flights[key] = &stepFlight{done: make(chan struct{})}
		c.misses++
		mCacheMisses.Inc()
		c.mu.Unlock()
		return cacheEntry{}, false, true
	}
}

// complete records a finished step and releases any builders waiting on
// it. The layer bytes are copied in: entries are shared across builds and
// must stay immutable however callers treat the slices they recorded. A
// persistent cache also writes the step through to its backing store; a
// write-through failure is parked in PersistErrs, never surfaced to the
// build.
func (c *Cache) complete(ctx context.Context, key string, ent cacheEntry) {
	if ent.layer != nil {
		ent.layer = append([]byte(nil), ent.layer...)
	}
	c.mu.Lock()
	c.entries[key] = ent
	f := c.flights[key]
	delete(c.flights, key)
	c.mu.Unlock()
	if f != nil {
		f.ent, f.filled = ent, true
		close(f.done)
	}
	if c.dir != nil {
		err := cas.DefaultRetry.Do(ctx, func() error {
			return c.dir.PutStep(ctx, key, ent.layer, ent.modified)
		})
		if err != nil {
			c.mu.Lock()
			c.notePersistErrLocked(err)
			c.mu.Unlock()
		}
	}
}

// abandon gives up a fill obtained from getOrBegin — the step failed, so
// there is nothing to record. Waiters wake and retry.
func (c *Cache) abandon(key string) {
	c.mu.Lock()
	f := c.flights[key]
	delete(c.flights, key)
	c.mu.Unlock()
	if f != nil {
		close(f.done)
	}
}

// chain folds a step descriptor into a running content-addressed key.
//
//chlint:keyroot
func chain(prev, desc string) string {
	h := sha256.Sum256([]byte(prev + "\x1f" + desc))
	return hex.EncodeToString(h[:])
}

// chainStart seeds the key chain with everything that shapes a build
// before its first instruction runs: the base image's identity *and
// content* (its layer digests — retagging different bytes under the same
// name must not replay stale layers), plus every option that changes
// execution.
//
//chlint:keyroot
func chainStart(base *image.Image, distro string, opt Options) string {
	parts := []string{
		"base=" + base.Name,
		"distro=" + distro,
		"force=" + opt.Force.String(),
		fmt.Sprintf("apt-workaround-disabled=%v", opt.DisableAptWorkaround),
		"filter=" + filterKey(opt.FilterConfig),
	}
	for _, l := range base.Layers {
		parts = append(parts, "layer="+l.Digest)
	}
	return chain("", strings.Join(parts, "\x1f"))
}

// filterKey renders a filter configuration deterministically (the struct
// holds arch pointers, so %v would not be stable).
//
//chlint:keyroot
func filterKey(cfg core.Config) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s/%s/errno=%d/idnotif=%v/killarch=%v",
		cfg.Variant, cfg.Strategy, cfg.FakeErrno, cfg.IDConsistency, cfg.KillUnknownArch)
	for _, a := range cfg.Arches {
		b.WriteString("/" + a.Name)
	}
	return b.String()
}

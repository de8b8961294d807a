// Package image implements layered container images: a content-addressed
// layer store, image metadata, flattening layers onto a simulated
// filesystem, and an in-process HTTP registry speaking a subset of the
// OCI distribution protocol for FROM pulls. New layers are committed by
// the build engine's incremental tarutil.Snapshotter.
package image

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/cas"
	"repro/internal/tarutil"
	"repro/internal/vfs"
)

// Layer is one content-addressed filesystem diff.
type Layer struct {
	Digest string // "sha256:<hex>"
	Data   []byte // tar bytes
}

// Digest computes the layer digest of data.
//
//chlint:keyroot
func Digest(data []byte) string {
	sum := sha256.Sum256(data)
	return "sha256:" + hex.EncodeToString(sum[:])
}

// Config is the image runtime configuration (a subset of the OCI image
// config).
type Config struct {
	Env        []string          `json:"env,omitempty"`
	Cmd        []string          `json:"cmd,omitempty"`
	Entrypoint []string          `json:"entrypoint,omitempty"`
	WorkingDir string            `json:"working_dir,omitempty"`
	User       string            `json:"user,omitempty"`
	Labels     map[string]string `json:"labels,omitempty"`
	Arch       string            `json:"arch,omitempty"`
}

// Distro returns the distribution label ("alpine", "centos7", "debian"),
// which decides the toolchain (binaries) the builder attaches.
func (c Config) Distro() string { return c.Labels["org.repro.distro"] }

// Image is a named, layered image.
type Image struct {
	Name   string // "alpine:3.19"
	Layers []Layer
	Config Config
}

// Clone returns a deep-enough copy for derivation (layers are immutable).
func (img *Image) Clone(name string) *Image {
	out := &Image{Name: name, Config: img.Config}
	out.Layers = append([]Layer{}, img.Layers...)
	if img.Config.Labels != nil {
		out.Config.Labels = map[string]string{}
		for k, v := range img.Config.Labels {
			out.Config.Labels[k] = v
		}
	}
	out.Config.Env = append([]string{}, img.Config.Env...)
	return out
}

// Flatten unpacks all layers, in order, onto a fresh filesystem — the
// privileged (image-store) path, so recorded ownership is preserved
// exactly.
func (img *Image) Flatten() (*vfs.FS, error) {
	fs := vfs.New()
	for i, l := range img.Layers {
		if err := tarutil.Unpack(fs, l.Data); err != nil {
			return nil, fmt.Errorf("image %s: layer %d: %w", img.Name, i, err)
		}
	}
	return fs, nil
}

// ChainDigest identifies a layer chain: the digest of the ordered layer
// digests. Two images with equal chain digests flatten identically.
//
//chlint:keyroot
func ChainDigest(layers []Layer) string {
	var b strings.Builder
	for _, l := range layers {
		b.WriteString(l.Digest)
		b.WriteByte('\n')
	}
	return Digest([]byte(b.String()))
}

// Store is a tag→image map plus a content-addressed blob store, the
// ch-image storage-directory analog. It also memoises flattened layer
// chains: layers are immutable and content-addressed, so a chain unpacks
// to the same tree forever and the unpacking work is paid once per chain,
// not once per build.
type Store struct {
	mu     sync.RWMutex
	images map[string]*Image
	blobs  map[string][]byte

	flattens map[string]*vfs.FS         // chain digest → pristine flattened tree
	lowers   map[string][]tarutil.Entry // chain digest → snapshot of that tree

	// backing, when set, is the persistent content-addressed store the
	// in-memory maps are a cache over: PutContext writes through (blobs,
	// tag records, flatten-chain snapshots), GetContext and flattened
	// fall back to it on miss and rehydrate lazily. A backing failure
	// never fails the store — persistence degrades and the errors
	// aggregate in backingErrs (capped; overflow counted in
	// backingDropped).
	backing        *cas.Dir
	backingErrs    []error
	backingDropped int

	// Single-flight state for flatten-cache fills: concurrent misses on
	// one chain must unpack+snapshot once, not clobber each other.
	flightMu   sync.Mutex
	flights    map[string]*flattenFlight
	fills      int // completed fills (unpack+snapshot paid), for tests and stats
	rehydrates int // chains loaded from the backing store instead of filled
}

// flattenFlight is one in-progress flatten-cache fill. Waiters block on
// done and then read the result fields, which the filler writes before
// closing the channel.
type flattenFlight struct {
	done  chan struct{}
	fs    *vfs.FS
	lower []tarutil.Entry
	err   error
}

// NewStore creates an empty store.
func NewStore() *Store {
	return &Store{
		images:   map[string]*Image{},
		blobs:    map[string][]byte{},
		flattens: map[string]*vfs.FS{},
		lowers:   map[string][]tarutil.Entry{},
		flights:  map[string]*flattenFlight{},
	}
}

// FlattenContext returns a filesystem holding img's flattened layers, like
// Image.Flatten, but the unpacked tree for each distinct layer chain is
// built once and cached; callers receive an independent deep clone they
// may mutate freely. The cached tree is snapshotted once at fill time,
// which both serves FlattenedEntriesContext and warms the per-file
// content digests every clone inherits. Cancelling ctx aborts a
// backing-store rehydration (the fill itself is in-memory work that runs
// to completion).
func (s *Store) FlattenContext(ctx context.Context, img *Image) (*vfs.FS, error) {
	fs, _, err := s.flattened(ctx, img)
	if err != nil {
		return nil, err
	}
	return fs.Clone(), nil
}

// flattened returns the cached pristine tree and lower snapshot for img's
// chain, filling the cache on miss. Fills are single-flight: of N
// concurrent misses on one chain, exactly one goroutine pays the
// unpack+snapshot (O(tree)); the rest block until it publishes and then
// share the result. A failed fill is not cached — the next caller retries.
//
// With a backing store attached, a miss first tries the persisted
// flatten-chain index: the whole-tree snapshot recorded by an earlier
// invocation unpacks in one pass (counted in Rehydrates, not
// FlattenFills), and a genuine fill persists its snapshot for the next
// invocation.
func (s *Store) flattened(ctx context.Context, img *Image) (*vfs.FS, []tarutil.Entry, error) {
	key := ChainDigest(img.Layers)
	s.mu.RLock()
	fs, ok := s.flattens[key]
	lower := s.lowers[key]
	s.mu.RUnlock()
	if ok {
		return fs, lower, nil
	}

	s.flightMu.Lock()
	// Re-check under the flight lock: a fill may have completed between
	// the miss above and here.
	s.mu.RLock()
	fs, ok = s.flattens[key]
	lower = s.lowers[key]
	s.mu.RUnlock()
	if ok {
		s.flightMu.Unlock()
		return fs, lower, nil
	}
	if f, inflight := s.flights[key]; inflight {
		s.flightMu.Unlock()
		<-f.done
		return f.fs, f.lower, f.err
	}
	f := &flattenFlight{done: make(chan struct{})}
	s.flights[key] = f
	s.flightMu.Unlock()

	rehydrated := s.rehydrateChain(ctx, key, f)
	if !rehydrated {
		f.fs, f.err = s.flattenPristine(img)
		if f.err == nil {
			f.lower, f.err = tarutil.Snapshot(f.fs)
		}
	}
	if f.err != nil {
		f.fs, f.lower = nil, nil
	} else {
		s.mu.Lock()
		s.flattens[key] = f.fs
		s.lowers[key] = f.lower
		s.mu.Unlock()
		if !rehydrated {
			s.persistChain(ctx, key, img, f.lower)
		}
	}
	s.flightMu.Lock()
	delete(s.flights, key)
	if f.err == nil {
		if rehydrated {
			s.rehydrates++
			mFlattenRehydrates.Inc()
		} else {
			s.fills++
			mFlattenFills.Inc()
		}
	}
	s.flightMu.Unlock()
	close(f.done)
	return f.fs, f.lower, f.err
}

// rehydrateChain tries to satisfy a flatten-cache miss from the backing
// store's persisted chain snapshot. On success it populates f and returns
// true; any failure (no backing, no record, corrupt snapshot) returns
// false and the caller pays the ordinary fill.
func (s *Store) rehydrateChain(ctx context.Context, key string, f *flattenFlight) bool {
	backing := s.Backing()
	if backing == nil {
		return false
	}
	ch, ok := backing.Chain(key)
	if !ok {
		return false
	}
	var snap []byte
	err := cas.DefaultRetry.Do(ctx, func() error {
		var rerr error
		snap, rerr = backing.Blob(ctx, ch.Snap)
		return rerr
	})
	if err != nil {
		return false
	}
	fs := vfs.New()
	if err := tarutil.Unpack(fs, snap); err != nil {
		return false
	}
	lower, err := tarutil.Snapshot(fs)
	if err != nil {
		return false
	}
	f.fs, f.lower = fs, lower
	return true
}

// persistChain writes a freshly filled flatten chain through to the
// backing store: the member layer blobs (so fsck and GC can account for
// them) and the packed whole-tree snapshot under the chain digest.
func (s *Store) persistChain(ctx context.Context, key string, img *Image, lower []tarutil.Entry) {
	backing := s.Backing()
	if backing == nil {
		return
	}
	// The whole sequence is idempotent (write-once blobs, same-record
	// skip), so a transient mid-sequence failure retries from the top.
	err := cas.DefaultRetry.Do(ctx, func() error {
		digests := make([]string, len(img.Layers))
		for i, l := range img.Layers {
			data, ok := s.blobView(l.Digest)
			if !ok {
				data = l.Data
			}
			if _, err := backing.PutBlob(ctx, data); err != nil {
				return err
			}
			digests[i] = l.Digest
		}
		packed, err := tarutil.Pack(lower)
		if err != nil {
			return err
		}
		return backing.PutChain(ctx, key, digests, packed)
	})
	s.mu.Lock()
	s.noteBackingErrLocked(err)
	s.mu.Unlock()
}

// flattenPristine is Image.Flatten reading each layer from the store's
// write-once blobs when registered there (falling back to the Image's own
// bytes for unregistered layers). The cache under a ChainDigest must hold
// the tree those digests name; an Image whose Data a caller scribbled on
// after Put cannot poison it.
func (s *Store) flattenPristine(img *Image) (*vfs.FS, error) {
	fs := vfs.New()
	for i, l := range img.Layers {
		data, ok := s.blobView(l.Digest)
		if !ok {
			data = l.Data
		}
		if err := tarutil.Unpack(fs, data); err != nil {
			return nil, fmt.Errorf("image %s: layer %d: %w", img.Name, i, err)
		}
	}
	return fs, nil
}

// FlattenedEntriesContext returns the canonical serialised snapshot
// (sorted tarutil entries, parents before children) of img's flattened
// tree, from the same per-chain memoisation FlattenContext uses — so
// reading a built stage's tree for COPY --from costs no re-walk once any
// consumer has flattened the chain. The returned slice and everything it
// references are shared across callers and must be treated as read-only;
// copy Entry.Data before retaining or mutating it.
func (s *Store) FlattenedEntriesContext(ctx context.Context, img *Image) ([]tarutil.Entry, error) {
	_, lower, err := s.flattened(ctx, img)
	if err != nil {
		return nil, err
	}
	return lower, nil
}

// FlattenFills reports how many flatten-cache fills have completed — under
// correct single-flight behaviour, one per distinct layer chain however
// many builders raced on it.
func (s *Store) FlattenFills() int {
	s.flightMu.Lock()
	defer s.flightMu.Unlock()
	return s.fills
}

// Rehydrates reports how many flatten chains were loaded from the backing
// store's persisted snapshots instead of being filled from layers — the
// warm-from-disk counterpart of FlattenFills.
func (s *Store) Rehydrates() int {
	s.flightMu.Lock()
	defer s.flightMu.Unlock()
	return s.rehydrates
}

// SetBacking attaches a persistent content-addressed store: subsequent
// Puts write through (layer blobs, tag records) and Gets and flatten
// fills fall back to it, so tags, layers and flatten chains survive the
// process and the next invocation starts warm. Attach the backing before
// seeding the store — images Put earlier are not retroactively persisted.
// Persistence errors never fail store operations; they are recorded and
// readable via BackingErrs.
func (s *Store) SetBacking(d *cas.Dir) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.backing = d
}

// Backing returns the attached persistent store, nil when in-memory only.
func (s *Store) Backing() *cas.Dir {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.backing
}

// backingErrCap bounds the aggregated persistence-failure list: past it,
// further failures are counted, not stored, so a long degraded build
// cannot grow the error list without bound.
const backingErrCap = 32

// BackingErrs returns every persistence failure since the backing was
// attached (a copy), plus a trailing summary entry when failures past the
// cap were dropped; nil when every write-through landed. A failure means
// the on-disk cache is colder than memory, never that it is wrong.
func (s *Store) BackingErrs() []error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if len(s.backingErrs) == 0 {
		return nil
	}
	out := append([]error(nil), s.backingErrs...)
	if s.backingDropped > 0 {
		out = append(out, fmt.Errorf("image: %d further persistence failure(s) dropped", s.backingDropped))
	}
	return out
}

// noteBackingErrLocked records one persistence failure. Callers hold s.mu.
func (s *Store) noteBackingErrLocked(err error) {
	if err == nil {
		return
	}
	if len(s.backingErrs) >= backingErrCap {
		s.backingDropped++
		return
	}
	s.backingErrs = append(s.backingErrs, err)
}

// GCBacking runs a garbage collection on the attached persistent store,
// a no-op when the store is in-memory only. Failures (cas.ErrBusy from
// another process holding the store, sweep I/O errors) are recorded the
// same way write-through failures are: the cache ends up colder than
// asked for, never wrong.
func (s *Store) GCBacking(ctx context.Context, b cas.Budget) (cas.GCStats, error) {
	backing := s.Backing()
	if backing == nil {
		return cas.GCStats{}, nil
	}
	stats, err := backing.GC(ctx, b)
	s.mu.Lock()
	s.noteBackingErrLocked(err)
	s.mu.Unlock()
	return stats, err
}

// Put is PutContext for seeding base images at setup, where there is no
// caller context to thread.
func (s *Store) Put(img *Image) {
	//chlint:allow ctxfirst -- setup-time seeding: daemon.New and the benchmark harness seed base images with no caller context
	s.PutContext(context.Background(), img)
}

// PutContext tags an image, registering its layer blobs. Blob bytes are
// copied on the way in and write-once thereafter: the store is
// content-addressed, so the first bytes recorded under a digest are the
// bytes that digest names, however callers later treat the Image they
// handed over. With a backing store attached, the blobs and the tag
// record write through to disk. Cancelling ctx aborts the write-through
// (recorded as a persistence failure), never the in-memory tag, which is
// already visible when the disk write starts.
func (s *Store) PutContext(ctx context.Context, img *Image) {
	s.mu.Lock()
	pristine := make([][]byte, len(img.Layers))
	digests := make([]string, len(img.Layers))
	for i, l := range img.Layers {
		if _, ok := s.blobs[l.Digest]; !ok {
			s.blobs[l.Digest] = append([]byte(nil), l.Data...)
		}
		// Persist the store's pristine copy, not the caller's mutable
		// slice. Blobs are write-once, so reading the map entry here and
		// using it after unlock is safe.
		pristine[i] = s.blobs[l.Digest]
		digests[i] = l.Digest
	}
	s.images[img.Name] = img
	backing := s.backing
	s.mu.Unlock()
	if backing == nil {
		return
	}
	// Write-through runs outside s.mu: disk writes must not stall the
	// store's readers. (Two concurrent Puts of the same tag may journal
	// in either order; both orders are internally consistent.) The whole
	// sequence is idempotent — write-once blobs, same-tag skip — so
	// transient failures retry it from the top.
	err := cas.DefaultRetry.Do(ctx, func() error {
		for _, data := range pristine {
			if _, err := backing.PutBlob(ctx, data); err != nil {
				return err
			}
		}
		cfg, err := json.Marshal(img.Config)
		if err != nil {
			return err
		}
		return backing.PutTag(ctx, img.Name, digests, cfg)
	})
	s.mu.Lock()
	s.noteBackingErrLocked(err)
	s.mu.Unlock()
}

// GetContext resolves a tag, falling back to the backing store: a tag
// persisted by an earlier invocation is rehydrated (layers loaded and
// digest-verified) on first access and cached in memory from then on.
// Cancelling ctx aborts a backing-store rehydration and reports a miss
// (callers on a cancelled context are about to fail at their own boundary
// check anyway).
func (s *Store) GetContext(ctx context.Context, name string) (*Image, bool) {
	s.mu.RLock()
	img, ok := s.images[name]
	backing := s.backing
	s.mu.RUnlock()
	if ok || backing == nil {
		return img, ok
	}
	tg, found := backing.Tag(name)
	if !found {
		return nil, false
	}
	loaded := &Image{Name: name, Layers: make([]Layer, 0, len(tg.Layers))}
	if len(tg.Config) > 0 {
		if err := json.Unmarshal(tg.Config, &loaded.Config); err != nil {
			return nil, false
		}
	}
	for _, digest := range tg.Layers {
		// Blob digest-verifies on the way out and quarantines mismatches,
		// so an error here means the tag is cold, never that bad bytes
		// got through.
		var data []byte
		err := cas.DefaultRetry.Do(ctx, func() error {
			var rerr error
			data, rerr = backing.Blob(ctx, digest)
			return rerr
		})
		if err != nil {
			return nil, false
		}
		loaded.Layers = append(loaded.Layers, Layer{Digest: digest, Data: data})
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if cur, ok := s.images[name]; ok {
		return cur, true // raced with a concurrent Put/Get; keep the winner
	}
	for _, l := range loaded.Layers {
		if _, ok := s.blobs[l.Digest]; !ok {
			// Copied, like Put: the caller owns the Image and may scribble
			// on its slices; the pristine-blob invariant must hold anyway.
			s.blobs[l.Digest] = append([]byte(nil), l.Data...)
		}
	}
	s.images[name] = loaded
	return loaded, true
}

// Blob fetches a blob by digest. The returned slice is the caller's to
// keep: it is a copy, so mutating it cannot corrupt the store.
func (s *Store) Blob(digest string) ([]byte, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	b, ok := s.blobs[digest]
	if !ok {
		return nil, false
	}
	return append([]byte(nil), b...), true
}

// putBlob stores one content-addressed blob (the registry's PUT side).
// The bytes are copied in, like Put.
func (s *Store) putBlob(digest string, data []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.blobs[digest]; ok {
		return
	}
	s.blobs[digest] = append([]byte(nil), data...)
}

// blobView returns the store's own slice without copying — the registry's
// hot serve path, where the bytes are only streamed to a ResponseWriter.
// Blobs are write-once, so sharing the slice internally is safe; anything
// that might outlive or mutate goes through Blob.
func (s *Store) blobView(digest string) ([]byte, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	b, ok := s.blobs[digest]
	return b, ok
}

// hasBlob reports blob presence without copying.
func (s *Store) hasBlob(digest string) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.blobs[digest]
	return ok
}

// Tags lists image names, sorted.
func (s *Store) Tags() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.images))
	for n := range s.images {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// FromFS builds a single-layer image from a filesystem.
func FromFS(name string, fs *vfs.FS, cfg Config) (*Image, error) {
	data, err := tarutil.PackFS(fs)
	if err != nil {
		return nil, err
	}
	return &Image{
		Name:   name,
		Layers: []Layer{{Digest: Digest(data), Data: data}},
		Config: cfg,
	}, nil
}

// SplitRef splits "name:tag" with a default "latest" tag.
func SplitRef(ref string) (name, tag string) {
	if i := strings.LastIndexByte(ref, ':'); i >= 0 && !strings.Contains(ref[i+1:], "/") {
		return ref[:i], ref[i+1:]
	}
	return ref, "latest"
}

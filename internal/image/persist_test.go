package image

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/cas"
	"repro/internal/tarutil"
	"repro/internal/vfs"
)

func openDir(t *testing.T, root string) *cas.Dir {
	t.Helper()
	d, _, err := cas.Open(root)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	return d
}

func testImage(t *testing.T, name string) *Image {
	t.Helper()
	fs := vfs.New()
	rc := vfs.RootContext()
	fs.MkdirAll(rc, "/etc", 0o755, 0, 0)
	fs.WriteFile(rc, "/etc/banner", []byte("persisted"), 0o644, 0, 0)
	img, err := FromFS(name, fs, Config{
		Env:    []string{"A=1"},
		Labels: map[string]string{"org.repro.distro": "alpine"},
	})
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// A tag Put through a backed store is resolvable by a completely fresh
// Store in a later "process", config and layer bytes intact.
func TestStoreTagSurvivesProcess(t *testing.T) {
	root := t.TempDir()
	img := testImage(t, "app:1")

	s1 := NewStore()
	s1.SetBacking(openDir(t, root))
	s1.Put(img)
	if err := errors.Join(s1.BackingErrs()...); err != nil {
		t.Fatal(err)
	}

	s2 := NewStore()
	s2.SetBacking(openDir(t, root))
	got, ok := s2.GetContext(context.Background(), "app:1")
	if !ok {
		t.Fatal("persisted tag not found by fresh store")
	}
	if got.Config.Distro() != "alpine" || len(got.Config.Env) != 1 {
		t.Fatalf("config lost: %+v", got.Config)
	}
	if len(got.Layers) != 1 || got.Layers[0].Digest != img.Layers[0].Digest {
		t.Fatalf("layers: %+v", got.Layers)
	}
	fs, err := got.Flatten()
	if err != nil {
		t.Fatal(err)
	}
	data, _ := fs.ReadFile(vfs.RootContext(), "/etc/banner")
	if string(data) != "persisted" {
		t.Fatalf("content: %q", data)
	}
	// Second Get serves from memory (same pointer).
	again, _ := s2.GetContext(context.Background(), "app:1")
	if again != got {
		t.Fatal("rehydrated image not cached in memory")
	}
	if _, ok := s2.GetContext(context.Background(), "never:1"); ok {
		t.Fatal("unknown tag resolved")
	}
}

// A flatten chain filled by one store rehydrates in the next process from
// the persisted snapshot: zero fills, identical tree and lower snapshot.
func TestFlattenChainRehydrates(t *testing.T) {
	root := t.TempDir()
	img := testImage(t, "app:1")

	s1 := NewStore()
	s1.SetBacking(openDir(t, root))
	s1.Put(img)
	fs1, err := s1.FlattenContext(context.Background(), img)
	if err != nil {
		t.Fatal(err)
	}
	if s1.FlattenFills() != 1 || s1.Rehydrates() != 0 {
		t.Fatalf("process 1: fills=%d rehydrates=%d", s1.FlattenFills(), s1.Rehydrates())
	}
	if err := errors.Join(s1.BackingErrs()...); err != nil {
		t.Fatal(err)
	}

	s2 := NewStore()
	s2.SetBacking(openDir(t, root))
	img2, ok := s2.GetContext(context.Background(), "app:1")
	if !ok {
		t.Fatal("tag lost")
	}
	fs2, err := s2.FlattenContext(context.Background(), img2)
	if err != nil {
		t.Fatal(err)
	}
	if s2.FlattenFills() != 0 || s2.Rehydrates() != 1 {
		t.Fatalf("process 2: fills=%d rehydrates=%d, want 0/1", s2.FlattenFills(), s2.Rehydrates())
	}
	// The rehydrated tree matches the filled one (Diff ignores mtime,
	// exactly as layer commits do).
	sn1, err := tarutil.Snapshot(fs1)
	if err != nil {
		t.Fatal(err)
	}
	sn2, err := tarutil.Snapshot(fs2)
	if err != nil {
		t.Fatal(err)
	}
	if d := tarutil.Diff(sn1, sn2); len(d) != 0 {
		t.Fatalf("rehydrated tree differs from filled tree: %d entries", len(d))
	}
	// The rehydrated chain's cached lower snapshot sees no phantom changes
	// against the tree it flattens to.
	lower, err := s2.FlattenedEntriesContext(context.Background(), img2)
	if err != nil {
		t.Fatal(err)
	}
	if d := tarutil.Diff(lower, sn2); len(d) != 0 {
		t.Fatalf("phantom diff against rehydrated chain: %d entries", len(d))
	}
}

// A corrupted chain snapshot blob is quarantined at open; the store falls
// back to an ordinary fill instead of failing.
func TestCorruptChainSnapshotFallsBackToFill(t *testing.T) {
	root := t.TempDir()
	// Two layers, so the packed whole-tree snapshot is a blob distinct
	// from every layer blob (a single-layer image's snapshot deduplicates
	// onto the layer itself).
	base := testImage(t, "base:1")
	fs, err := base.Flatten()
	if err != nil {
		t.Fatal(err)
	}
	fs.WriteFile(vfs.RootContext(), "/etc/extra", []byte("layer two"), 0o644, 0, 0)
	img, added, err := commitLayer(base, "app:1", fs)
	if err != nil || !added {
		t.Fatalf("commit: added=%v err=%v", added, err)
	}
	s1 := NewStore()
	s1.SetBacking(openDir(t, root))
	s1.Put(img)
	if _, err := s1.FlattenContext(context.Background(), img); err != nil {
		t.Fatal(err)
	}
	if err := errors.Join(s1.BackingErrs()...); err != nil {
		t.Fatal(err)
	}

	// Corrupt the chain's snapshot blob, located through the persisted
	// chain index itself.
	d1 := s1.Backing()
	ch, ok := d1.Chain(ChainDigest(img.Layers))
	if !ok {
		t.Fatal("chain not persisted")
	}
	for _, l := range img.Layers {
		if ch.Snap == l.Digest {
			t.Fatal("snapshot blob unexpectedly dedups onto a layer")
		}
	}
	hexpart := ch.Snap[len("sha256:"):]
	p := filepath.Join(root, "blobs", "sha256", hexpart[:2], hexpart[2:])
	if err := os.WriteFile(p, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}

	d2, rep, err := cas.Open(root)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if rep.BlobsQuarantined == 0 {
		t.Fatalf("corruption not detected: %+v", rep)
	}
	s2 := NewStore()
	s2.SetBacking(d2)
	img2, ok := s2.GetContext(context.Background(), "app:1")
	if !ok {
		t.Fatal("tag with intact layers lost")
	}
	if _, err := s2.FlattenContext(context.Background(), img2); err != nil {
		t.Fatal(err)
	}
	if s2.FlattenFills() != 1 || s2.Rehydrates() != 0 {
		t.Fatalf("fills=%d rehydrates=%d, want fill fallback", s2.FlattenFills(), s2.Rehydrates())
	}
}

// Images Put before SetBacking are not persisted; attach-then-seed is the
// documented order and must round-trip.
func TestBackingAttachOrder(t *testing.T) {
	root := t.TempDir()
	s1 := NewStore()
	s1.Put(testImage(t, "early:1")) // before attach: memory only
	s1.SetBacking(openDir(t, root))
	s1.Put(testImage(t, "late:1"))

	s2 := NewStore()
	s2.SetBacking(openDir(t, root))
	if _, ok := s2.GetContext(context.Background(), "early:1"); ok {
		t.Fatal("pre-attach Put leaked to disk")
	}
	if _, ok := s2.GetContext(context.Background(), "late:1"); !ok {
		t.Fatal("post-attach Put not persisted")
	}
}

// GCBacking delegates to the attached cas directory; without one it is a
// quiet no-op, and a failure is recorded as a backing error (colder
// cache) rather than returned as a build-stopping condition upstream.
func TestGCBackingDelegatesAndRecordsErrors(t *testing.T) {
	// No backing: zero stats, no error, nothing recorded.
	s := NewStore()
	if stats, err := s.GCBacking(context.Background(), cas.Budget{MaxBytes: 1}); err != nil || stats != (cas.GCStats{}) {
		t.Fatalf("GCBacking without backing: %+v %v", stats, err)
	}

	// With a backing: the untagged blob goes, the tagged image survives.
	root := t.TempDir()
	d := openDir(t, root)
	s.SetBacking(d)
	s.Put(testImage(t, "keep:1"))
	if _, err := d.PutBlob(context.Background(), []byte("untagged garbage")); err != nil {
		t.Fatal(err)
	}
	stats, err := s.GCBacking(context.Background(), cas.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.BlobsSwept != 1 || stats.TagsKept != 1 {
		t.Fatalf("stats: %+v", stats)
	}
	if err := errors.Join(s.BackingErrs()...); err != nil {
		t.Fatalf("successful GC recorded an error: %v", err)
	}

	// A failing GC (closed backing) is recorded, not swallowed.
	d.Close()
	if _, err := s.GCBacking(context.Background(), cas.Budget{}); err == nil {
		t.Fatal("GC on closed backing succeeded")
	}
	if err := errors.Join(s.BackingErrs()...); err == nil {
		t.Fatal("GC failure not recorded as backing error")
	}
}

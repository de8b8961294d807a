package image

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/vfs"
)

// Concurrency coverage for the shared image layers: the flatten cache's
// single-flight fill, the store under parallel mixed use, and the
// registry under concurrent push/pull of overlapping blob sets.

// TestStoreFlattenSingleFlight: N goroutines miss on the same chain at
// once; exactly one unpack+snapshot runs and everyone shares its result.
func TestStoreFlattenSingleFlight(t *testing.T) {
	img, err := FromFS("base:1", baseFS(t), Config{})
	if err != nil {
		t.Fatal(err)
	}
	s := NewStore()
	s.Put(img)

	const n = 16
	var (
		start sync.WaitGroup
		done  sync.WaitGroup
		gate  = make(chan struct{})
		trees [n]*vfs.FS
		errs  [n]error
	)
	start.Add(n)
	done.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer done.Done()
			start.Done()
			<-gate // all goroutines reach the miss together
			trees[i], errs[i] = s.FlattenContext(context.Background(), img)
		}(i)
	}
	start.Wait()
	close(gate)
	done.Wait()

	if fills := s.FlattenFills(); fills != 1 {
		t.Errorf("flatten fills = %d, want 1", fills)
	}
	rc := vfs.RootContext()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("goroutine %d: %v", i, errs[i])
		}
		if !trees[i].Exists(rc, "/etc/os-release") {
			t.Errorf("goroutine %d: flattened tree incomplete", i)
		}
	}
	// Clones are independent: scribbling on one is invisible to the rest
	// and to later cache hits.
	trees[0].WriteFile(rc, "/etc/os-release", []byte("SCRIBBLED\n"), 0o644, 0, 0)
	if b, e := trees[1].ReadFile(rc, "/etc/os-release"); !e.Ok() || string(b) != "ID=test\n" {
		t.Errorf("clone 1 saw clone 0's write: %q %v", b, e)
	}
	later, err := s.FlattenContext(context.Background(), img)
	if err != nil {
		t.Fatal(err)
	}
	if b, _ := later.ReadFile(rc, "/etc/os-release"); string(b) != "ID=test\n" {
		t.Errorf("cached pristine tree corrupted: %q", b)
	}
	if fills := s.FlattenFills(); fills != 1 {
		t.Errorf("later hit refilled: fills = %d", fills)
	}
}

// TestStoreConcurrentHammer exercises every Store entry point from many
// goroutines at once. The assertions are loose — the store is shared
// mutable state and interleavings vary — but under -race this is the
// test that proves the locking holds together.
func TestStoreConcurrentHammer(t *testing.T) {
	s := NewStore()
	base, err := FromFS("base:0", baseFS(t), Config{})
	if err != nil {
		t.Fatal(err)
	}
	s.Put(base)

	const workers = 8
	const rounds = 20
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			rc := vfs.RootContext()
			for r := 0; r < rounds; r++ {
				name := fmt.Sprintf("img:%d-%d", w, r)
				fs, err := s.FlattenContext(context.Background(), base)
				if err != nil {
					t.Errorf("worker %d: flatten: %v", w, err)
					return
				}
				fs.WriteFile(rc, fmt.Sprintf("/w%d-r%d", w, r), []byte(name), 0o644, 0, 0)
				derived, added, err := commitLayer(base, name, fs)
				if err != nil || !added {
					t.Errorf("worker %d: commit: added=%v err=%v", w, added, err)
					return
				}
				s.Put(derived)
				if got, ok := s.GetContext(context.Background(), name); !ok || len(got.Layers) != 2 {
					t.Errorf("worker %d: get %s: ok=%v", w, name, ok)
					return
				}
				for _, l := range derived.Layers {
					if b, ok := s.Blob(l.Digest); !ok || Digest(b) != l.Digest {
						t.Errorf("worker %d: blob %s broken", w, l.Digest)
						return
					}
				}
				s.Tags()
			}
		}(w)
	}
	wg.Wait()

	// One fill for the shared base chain, however many workers hammered it.
	if fills := s.FlattenFills(); fills != 1 {
		t.Errorf("flatten fills = %d, want 1", fills)
	}
	// Every listed tag resolves.
	for _, tag := range s.Tags() {
		if _, ok := s.GetContext(context.Background(), tag); !ok {
			t.Errorf("listed tag %s does not resolve", tag)
		}
	}
}

// TestStorePutCopiesBlobBytes: the store's content-addressed blobs must
// stay immutable when the caller mutates the Image it handed to Put.
func TestStorePutCopiesBlobBytes(t *testing.T) {
	img, err := FromFS("mut:1", baseFS(t), Config{})
	if err != nil {
		t.Fatal(err)
	}
	s := NewStore()
	s.Put(img)
	digest := img.Layers[0].Digest
	for i := range img.Layers[0].Data {
		img.Layers[0].Data[i] = 0
	}
	blob, ok := s.Blob(digest)
	if !ok {
		t.Fatal("blob missing")
	}
	if Digest(blob) != digest {
		t.Fatal("store blob corrupted by caller mutation after Put")
	}
	// And the slice Blob hands out is itself a copy.
	blob[0] ^= 0xff
	again, _ := s.Blob(digest)
	if Digest(again) != digest {
		t.Fatal("mutating a Blob() result corrupted the store")
	}
}

// TestStoreFlattenImmuneToScribbledImage: the flatten cache must hold the
// tree an image's layer *digests* name, even when a caller corrupts the
// Image's Data slices in place after Put — fills read the store's
// write-once blobs, not the caller-visible bytes.
func TestStoreFlattenImmuneToScribbledImage(t *testing.T) {
	img, err := FromFS("scribbled:1", baseFS(t), Config{})
	if err != nil {
		t.Fatal(err)
	}
	s := NewStore()
	s.Put(img)
	for _, l := range img.Layers {
		for i := range l.Data {
			l.Data[i] ^= 0xff
		}
	}
	fs, err := s.FlattenContext(context.Background(), img) // cold fill happens after the scribbling
	if err != nil {
		t.Fatalf("flatten of scribbled image: %v", err)
	}
	if b, e := fs.ReadFile(vfs.RootContext(), "/etc/os-release"); !e.Ok() || string(b) != "ID=test\n" {
		t.Errorf("flatten served scribbled bytes: %q %v", b, e)
	}
	// Re-Putting the corrupted image must not replace the pristine blob.
	s.Put(img)
	blob, ok := s.Blob(img.Layers[0].Digest)
	if !ok || Digest(blob) != img.Layers[0].Digest {
		t.Error("re-Put overwrote the write-once blob with corrupt bytes")
	}
}

// TestRegistryConcurrentPushPull: many clients pushing and pulling images
// with overlapping blob sets (a shared base layer) against one server.
func TestRegistryConcurrentPushPull(t *testing.T) {
	srvStore := NewStore()
	reg := NewRegistry(srvStore)
	url, err := reg.Start()
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()

	base, err := FromFS("app", baseFS(t), Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Derived images share base's layer blob and add a private one.
	const n = 8
	images := make([]*Image, n)
	for i := range images {
		fs, err := base.Flatten()
		if err != nil {
			t.Fatal(err)
		}
		fs.WriteFile(vfs.RootContext(), "/unique", []byte(fmt.Sprintf("v%d", i)), 0o644, 0, 0)
		img, added, err := commitLayer(base, fmt.Sprintf("app:%d", i), fs)
		if err != nil || !added {
			t.Fatalf("derive %d: added=%v err=%v", i, added, err)
		}
		images[i] = img
	}

	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			if err := Push(url, images[i]); err != nil {
				t.Errorf("push %d: %v", i, err)
				return
			}
			// Pull back our own tag and a neighbour's (when it is up yet;
			// overlapping blobs are the interesting part either way).
			got, err := Pull(url, fmt.Sprintf("app:%d", i))
			if err != nil {
				t.Errorf("pull %d: %v", i, err)
				return
			}
			if len(got.Layers) != 2 {
				t.Errorf("pull %d: %d layers", i, len(got.Layers))
				return
			}
			fs, err := got.Flatten()
			if err != nil {
				t.Errorf("pull %d: flatten: %v", i, err)
				return
			}
			if b, e := fs.ReadFile(vfs.RootContext(), "/unique"); !e.Ok() || string(b) != fmt.Sprintf("v%d", i) {
				t.Errorf("pull %d: /unique = %q %v", i, b, e)
			}
		}(i)
	}
	wg.Wait()

	// Every tag and every blob is served intact after the stampede.
	for i := 0; i < n; i++ {
		img, err := Pull(url, fmt.Sprintf("app:%d", i))
		if err != nil {
			t.Fatalf("final pull %d: %v", i, err)
		}
		if img.Layers[0].Digest != base.Layers[0].Digest {
			t.Errorf("image %d lost the shared base layer", i)
		}
	}
}

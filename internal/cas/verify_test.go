package cas

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"
)

// corruptBlobOnDisk flips the stored bytes of a blob without touching its
// name, simulating bit rot between invocations.
func corruptBlobOnDisk(t *testing.T, d *Dir, digest string) {
	t.Helper()
	p, err := d.blobPath(digest)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(p, []byte("rotten"), 0o644); err != nil {
		t.Fatal(err)
	}
}

// A kill between writeCompactJournalLocked's temp write and its rename strands
// a temp journal and leaves the real journal untouched. Reopen must heal:
// the litter is cleared, every record survives, and no damage is reported.
func TestCrashMidCompactionHeals(t *testing.T) {
	root := t.TempDir()
	d, _ := openT(t, root)
	if err := d.PutStep(ctx, "k1", []byte("layer-1"), 0); err != nil {
		t.Fatal(err)
	}
	if err := d.PutStep(ctx, "k2", []byte("layer-2"), 0); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	// The stranded temp file: half a compacted journal, never renamed.
	// Its content is deliberately a torn prefix of valid-looking lines.
	journal, err := os.ReadFile(filepath.Join(root, "journal"))
	if err != nil {
		t.Fatal(err)
	}
	tmp := filepath.Join(root, "tmp", "journal-42")
	if err := os.WriteFile(tmp, journal[:len(journal)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	d2, rep := openT(t, root)
	if rep.Quarantined() {
		t.Fatalf("reopen after crash-mid-compaction reports damage: %+v", rep)
	}
	for _, key := range []string{"k1", "k2"} {
		if _, ok := d2.Step(key); !ok {
			t.Fatalf("step %q lost to a crash that never renamed", key)
		}
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatalf("stranded temp journal not cleared: %v", err)
	}
}

// Lazy open must not read blob contents: a corrupt blob goes unnoticed at
// open (no fsck pass), is caught by Blob's verify-on-read, and the next
// open drops the now-dangling record.
func TestLazyOpenDefersBlobVerification(t *testing.T) {
	root := t.TempDir()
	d, _ := openT(t, root)
	if err := d.PutStep(ctx, "good", []byte("good layer"), 0); err != nil {
		t.Fatal(err)
	}
	if err := d.PutStep(ctx, "bad", []byte("bad layer"), 0); err != nil {
		t.Fatal(err)
	}
	badStep, _ := d.Step("bad")
	corruptBlobOnDisk(t, d, badStep.Layer)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2, _, err := Open(root, WithVerify(VerifyLazy))
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	rep := d2.Report()
	if rep.BlobsChecked != 0 || rep.BlobsQuarantined != 0 {
		t.Fatalf("lazy open ran the fsck pass: %+v", rep)
	}
	// The record is still there — lazy trades early detection for a
	// cheap open; presence was stat-checked, content was not.
	if _, ok := d2.Step("bad"); !ok {
		t.Fatal("lazy open dropped a record whose blob file exists")
	}
	// Verify-on-read is the backstop: the corrupt blob reads as an error
	// and is quarantined then.
	if _, err := d2.Blob(ctx, badStep.Layer); err == nil {
		t.Fatal("corrupt blob read back without error")
	}
	if d2.Report().BlobsQuarantined != 1 {
		t.Fatalf("corrupt blob not quarantined at read: %+v", d2.Report())
	}
	goodStep, _ := d2.Step("good")
	if data, err := d2.Blob(ctx, goodStep.Layer); err != nil || string(data) != "good layer" {
		t.Fatalf("good blob: %q %v", data, err)
	}
	if err := d2.Close(); err != nil {
		t.Fatal(err)
	}

	// Same end state as VerifyFull, discovered later: the next open sees
	// the quarantined blob missing and drops the dangling record.
	d3, _, err := Open(root, WithVerify(VerifyLazy))
	if err != nil {
		t.Fatal(err)
	}
	defer d3.Close()
	if _, ok := d3.Step("bad"); ok {
		t.Fatal("dangling record survived reopen")
	}
	if _, ok := d3.Step("good"); !ok {
		t.Fatal("healthy record lost")
	}
}

// Lazy open still drops records whose blob files are missing entirely —
// the stat-based pass is kept in both modes.
func TestLazyOpenDropsDanglingRecords(t *testing.T) {
	root := t.TempDir()
	d, _ := openT(t, root)
	if err := d.PutStep(ctx, "dangling", []byte("gone layer"), 0); err != nil {
		t.Fatal(err)
	}
	st, _ := d.Step("dangling")
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	p, err := d.blobPath(st.Layer)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(p); err != nil {
		t.Fatal(err)
	}

	d2, _, err := Open(root, WithVerify(VerifyLazy))
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if _, ok := d2.Step("dangling"); ok {
		t.Fatal("record referencing a missing blob survived lazy open")
	}
	if d2.Report().RecordsDropped != 1 {
		t.Fatalf("RecordsDropped = %d, want 1", d2.Report().RecordsDropped)
	}
}

// The full-verify twin of TestLazyOpenDropsDanglingRecords: a removed
// blob is absent from the fsck's presence set and from disk, so every
// record kind that references it drops, each once.
func TestFullOpenDropsDanglingRecords(t *testing.T) {
	root := t.TempDir()
	d, _ := openT(t, root)
	if err := d.PutStep(ctx, "dangling", []byte("gone layer"), 0); err != nil {
		t.Fatal(err)
	}
	if err := d.PutStep(ctx, "kept", []byte("kept layer"), 0); err != nil {
		t.Fatal(err)
	}
	gone, _ := d.Step("dangling")
	if err := d.PutTag(ctx, "app:1", []string{gone.Layer}, nil); err != nil {
		t.Fatal(err)
	}
	if err := d.PutChain(ctx, "chain-1", []string{gone.Layer}, []byte("snapshot")); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	p, err := d.blobPath(gone.Layer)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(p); err != nil {
		t.Fatal(err)
	}

	d2, rep := openT(t, root)
	if rep.RecordsDropped != 3 {
		t.Fatalf("RecordsDropped = %d, want 3 (step, tag, chain): %+v", rep.RecordsDropped, rep)
	}
	if rep.BlobsChecked != 2 || rep.BlobsQuarantined != 0 {
		t.Fatalf("fsck of the two remaining blobs: %+v", rep)
	}
	if _, ok := d2.Step("dangling"); ok {
		t.Fatal("step referencing a missing blob survived full open")
	}
	if _, ok := d2.Tag("app:1"); ok {
		t.Fatal("tag referencing a missing blob survived full open")
	}
	if _, ok := d2.Chain("chain-1"); ok {
		t.Fatal("chain referencing a missing blob survived full open")
	}
	if _, ok := d2.Step("kept"); !ok {
		t.Fatal("healthy step lost")
	}
}

// A digest missing from the presence set is stat-checked before its
// records drop: with an empty set, a healthy store drops nothing. This
// is what keeps alive a blob a peer wrote after Open's fsck walk.
func TestDropDanglingFallsBackToStat(t *testing.T) {
	root := t.TempDir()
	d, _ := openT(t, root)
	if err := d.PutStep(ctx, "s", []byte("layer"), 0); err != nil {
		t.Fatal(err)
	}
	st, _ := d.Step("s")
	if err := d.PutTag(ctx, "t:1", []string{st.Layer}, nil); err != nil {
		t.Fatal(err)
	}
	if err := d.PutChain(ctx, "c", []string{st.Layer}, []byte("snap")); err != nil {
		t.Fatal(err)
	}

	d.mu.Lock()
	d.dropDanglingRecordsLocked(map[string]bool{})
	dropped := d.report.RecordsDropped
	d.mu.Unlock()
	if dropped != 0 {
		t.Fatalf("empty presence set on a healthy store dropped %d records", dropped)
	}
	if _, ok := d.Step("s"); !ok {
		t.Fatal("step dropped")
	}
	if _, ok := d.Tag("t:1"); !ok {
		t.Fatal("tag dropped")
	}
	if _, ok := d.Chain("c"); !ok {
		t.Fatal("chain dropped")
	}
}

// Open's fsck runs over the shards in parallel; damage in several shards
// at once must still be found blob by blob. Three blobs in three shards
// are damaged three ways (truncated, one bit flipped, another blob's
// bytes under this one's name); every blob is still checked, exactly
// those three are quarantined, each record referencing one drops once,
// and the healthy steps still load. It runs with one P (Open's goroutine
// alone walks every shard after the journal) and with four (three
// workers beside it).
func TestParallelFsckQuarantinesAcrossShards(t *testing.T) {
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			testFsckQuarantinesAcrossShards(t)
		})
	}
}

func testFsckQuarantinesAcrossShards(t *testing.T) {
	root := t.TempDir()
	d, _ := openT(t, root)
	const n = 48
	layers := map[string]string{} // step key -> layer digest
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("step-%d", i)
		if err := d.PutStep(ctx, key, bytes.Repeat([]byte(key+" "), 64+i), 0); err != nil {
			t.Fatal(err)
		}
		st, _ := d.Step(key)
		layers[key] = st.Layer
	}

	// Pick three victims in three distinct shards.
	keys := make([]string, 0, n)
	for k := range layers {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var victims []string
	shards := map[string]bool{}
	for _, k := range keys {
		shard := strings.TrimPrefix(layers[k], DigestPrefix)[:2]
		if !shards[shard] {
			shards[shard] = true
			victims = append(victims, k)
		}
		if len(victims) == 3 {
			break
		}
	}
	if len(victims) != 3 {
		t.Fatalf("only %d distinct shards among %d blobs", len(victims), n)
	}
	// One tag and one chain reference a victim too; both must drop.
	if err := d.PutTag(ctx, "app:1", []string{layers[victims[0]], layers[keys[n-1]]}, nil); err != nil {
		t.Fatal(err)
	}
	if err := d.PutChain(ctx, "chain-1", []string{layers[victims[1]]}, []byte("snapshot")); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	healthy, err := d.blobPath(layers[keys[n-1]])
	if err != nil {
		t.Fatal(err)
	}
	other, err := os.ReadFile(healthy)
	if err != nil {
		t.Fatal(err)
	}
	damage := []func([]byte) []byte{
		// Truncated.
		func(b []byte) []byte { return b[:len(b)/2] },
		// One bit flipped.
		func(b []byte) []byte { c := append([]byte(nil), b...); c[len(c)/3] ^= 0x04; return c },
		// Another blob's intact bytes under this one's name.
		func([]byte) []byte { return other },
	}
	wantQuarantine := map[string]bool{}
	for i, k := range victims {
		p, err := d.blobPath(layers[k])
		if err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, damage[i](data), 0o644); err != nil {
			t.Fatal(err)
		}
		wantQuarantine["blob-"+strings.TrimPrefix(layers[k], DigestPrefix)] = true
	}

	d2, rep := openT(t, root)
	total := n + 1 // the step layers plus the chain snapshot
	if rep.BlobsChecked != total {
		t.Fatalf("BlobsChecked = %d, want %d", rep.BlobsChecked, total)
	}
	if rep.BlobsQuarantined != 3 {
		t.Fatalf("BlobsQuarantined = %d, want 3: %+v", rep.BlobsQuarantined, rep)
	}
	if rep.RecordsDropped != 5 {
		t.Fatalf("RecordsDropped = %d, want 5 (3 steps, 1 tag, 1 chain): %+v", rep.RecordsDropped, rep)
	}
	ents, err := os.ReadDir(filepath.Join(root, "quarantine"))
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	for _, e := range ents {
		got[e.Name()] = true
	}
	if len(got) != len(wantQuarantine) {
		t.Fatalf("quarantine/ holds %v, want %v", got, wantQuarantine)
	}
	for name := range wantQuarantine {
		if !got[name] {
			t.Fatalf("quarantine/ holds %v, want %v", got, wantQuarantine)
		}
	}
	if _, ok := d2.Tag("app:1"); ok {
		t.Fatal("tag referencing a corrupt blob survived")
	}
	if _, ok := d2.Chain("chain-1"); ok {
		t.Fatal("chain referencing a corrupt blob survived")
	}
	bad := map[string]bool{}
	for _, k := range victims {
		bad[k] = true
	}
	for _, k := range keys {
		st, ok := d2.Step(k)
		if bad[k] {
			if ok {
				t.Fatalf("step %s references a corrupt blob and survived", k)
			}
			continue
		}
		if !ok {
			t.Fatalf("healthy step %s lost", k)
		}
		if data, err := d2.Blob(ctx, st.Layer); err != nil || !bytes.HasPrefix(data, []byte(k+" ")) {
			t.Fatalf("healthy step %s: %q %v", k, data, err)
		}
	}
}

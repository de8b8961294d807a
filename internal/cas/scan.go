package cas

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
)

// storeScan is what Open's validation pass read: the checksummed journal
// and, under VerifyFull, a verdict on every blob file. Building it touches
// no Dir state, so the workers share nothing with the handle; Open
// applies it on its own goroutine.
type storeScan struct {
	journal    journalScan
	journalErr error
	checked    int             // blob files scanned
	present    map[string]bool // digests whose file content matched
	corrupt    []corruptBlob   // files whose content does not match their name
}

// corruptBlob is one blob file to quarantine: its path and the digest hex
// its shard and file names spell.
type corruptBlob struct {
	path, name string
}

// fsckPart is what one worker's share of the fsck found.
type fsckPart struct {
	checked  int
	verified []string
	corrupt  []corruptBlob
}

// scanStore is Open's one parallel pass over the store. Under full
// verify, up to GOMAXPROCS-1 workers take blob shards in turn while the
// calling goroutine reads, checksums and decodes the journal, then joins
// them on the shards that are left, so at most GOMAXPROCS goroutines run
// the pass. Nothing is dropped: every blob is still read and hashed and
// every journal line still checksummed.
func scanStore(root string, full bool) storeScan {
	dir := filepath.Join(root, "blobs", "sha256")
	var shards []string
	if full {
		shards = blobShards(dir)
	}
	parts := make([]fsckPart, min(runtime.GOMAXPROCS(0), len(shards)+1))
	var next atomic.Int64
	work := func(part *fsckPart) {
		var v blobVerifier
		for {
			t := int(next.Add(1)) - 1
			if t >= len(shards) {
				return
			}
			v.shard(dir, shards[t], part)
		}
	}
	var wg sync.WaitGroup
	for i := 1; i < len(parts); i++ {
		wg.Add(1)
		go func(part *fsckPart) {
			defer wg.Done()
			work(part)
		}(&parts[i])
	}
	var sc storeScan
	sc.journal, sc.journalErr = scanJournal(filepath.Join(root, "journal"))
	work(&parts[0])
	wg.Wait()

	n := 0
	for _, p := range parts {
		n += len(p.verified)
	}
	sc.present = make(map[string]bool, n)
	for _, p := range parts {
		sc.checked += p.checked
		sc.corrupt = append(sc.corrupt, p.corrupt...)
		for _, dg := range p.verified {
			sc.present[dg] = true
		}
	}
	return sc
}

// blobShards lists the shard directories of the blob store at dir.
func blobShards(dir string) []string {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil
	}
	shards := make([]string, 0, len(ents))
	for _, e := range ents {
		if e.IsDir() {
			shards = append(shards, e.Name())
		}
	}
	return shards
}

// walkShard visits every file in one shard directory of the blob store
// at dir. It is the one place the layout (dir/<shard>/<rest> holds
// sha256:<shard><rest>) is spelled: Open's parallel fsck calls it per
// shard, and walkBlobs, which stats and GC share, calls it for each.
func walkShard(dir, shard string, visit func(digest, path string, ent os.DirEntry)) {
	files, err := os.ReadDir(filepath.Join(dir, shard))
	if err != nil {
		return
	}
	for _, f := range files {
		visit(DigestPrefix+shard+f.Name(), filepath.Join(dir, shard, f.Name()), f)
	}
}

// blobVerifier stream-hashes blob files through one reused buffer. Like
// scanJournal, it reads outside any Dir method, so failpointcover (which
// checks methods of the failpointed type) does not see these reads: the
// open-time fsck is not failpointed. A failed read here only leaves the
// blob in place, and the soak faults OpBlobRead on the serving path,
// where Blob() verifies again.
type blobVerifier struct {
	buf []byte
	h   hash.Hash
	sum [sha256.Size]byte
	hex [2 * sha256.Size]byte
}

// shard digest-verifies every file in one shard directory against its
// name and records the verdicts in part.
func (v *blobVerifier) shard(dir, shard string, part *fsckPart) {
	walkShard(dir, shard, func(digest, p string, _ os.DirEntry) {
		part.checked++
		name := strings.TrimPrefix(digest, DigestPrefix)
		ok, err := v.matches(p, name)
		switch {
		case err != nil:
			// Unreadable is not the same as corrupt: a transient
			// EMFILE/EIO must not destroy a healthy blob. Leave it;
			// Blob() digest-verifies again at use time.
		case ok:
			part.verified = append(part.verified, digest)
		default:
			part.corrupt = append(part.corrupt, corruptBlob{path: p, name: name})
		}
	})
}

// matches reports whether the file at p hashes to the lowercase hex
// digest name; err reports a file that could not be read.
func (v *blobVerifier) matches(p, name string) (bool, error) {
	if v.buf == nil {
		v.buf = make([]byte, 32<<10)
		v.h = sha256.New()
	}
	v.h.Reset()
	if err := hashFile(p, v.h, v.buf); err != nil {
		return false, err
	}
	hex.Encode(v.hex[:], v.h.Sum(v.sum[:0]))
	return string(v.hex[:]) == name, nil
}

// hashFile streams the file at p through h, reading into buf with a
// plain Read loop: io.Copy would go through os.File.WriteTo and allocate
// a fresh 32 KiB buffer per blob.
func hashFile(p string, h hash.Hash, buf []byte) error {
	f, err := os.Open(p)
	if err != nil {
		return err
	}
	defer f.Close()
	for {
		n, err := f.Read(buf)
		h.Write(buf[:n])
		if errors.Is(err, io.EOF) {
			return nil
		}
		if err != nil {
			return err
		}
	}
}

// journalScan is the journal as read from disk: the records whose lines
// passed the checksum, in journal order, and the lines that did not.
type journalScan struct {
	records  []record
	bad      [][]byte
	lines    int  // non-empty lines read
	tornTail bool // the file does not end in '\n'
}

// scanJournal reads and checksum-verifies the journal at path. Each line
// is "<sha256-hex-of-payload> <payload-json>"; a line that fails the
// checksum (torn tail, bit rot) goes to bad. A missing journal is an
// empty one. Open-time replay is not failpointed, and as a free function
// it is outside failpointcover's scope: recovery from partial reads is
// exercised by the torn-tail corpus instead.
func scanJournal(path string) (journalScan, error) {
	var js journalScan
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return js, nil
	}
	if err != nil {
		return js, fmt.Errorf("cas: journal: %w", err)
	}
	// A journal not ending in '\n' has a torn final line; the checksum
	// rejects the fragment like any other bad line.
	js.tornTail = len(data) > 0 && data[len(data)-1] != '\n'
	js.records = make([]record, 0, bytes.Count(data, []byte{'\n'})+1)
	for rest := data; len(rest) > 0; {
		var line []byte
		line, rest, _ = bytes.Cut(rest, []byte{'\n'})
		if len(line) == 0 {
			continue
		}
		js.lines++
		rec, ok := decodeLine(line)
		if !ok {
			js.bad = append(js.bad, line)
			continue
		}
		js.records = append(js.records, rec)
	}
	return js, nil
}

// decodeLine parses and checksum-verifies one journal line.
func decodeLine(line []byte) (record, bool) {
	sum, payload, ok := bytes.Cut(line, []byte{' '})
	if !ok || len(sum) != 2*sha256.Size {
		return record{}, false
	}
	h := sha256.Sum256(payload)
	var want [2 * sha256.Size]byte
	hex.Encode(want[:], h[:])
	if !bytes.Equal(want[:], sum) {
		return record{}, false
	}
	var rec record
	if json.Unmarshal(payload, &rec) != nil {
		return record{}, false
	}
	return rec, true
}

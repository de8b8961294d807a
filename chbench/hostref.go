package main

// The host-speed reference. A shared machine's speed drifts by tens of
// percent from one minute to the next, and a raw build time follows it:
// ten runs of the same code on one 2-vCPU VM spread their build_ms_p50
// over a quarter of its median. So the CLI workloads' build_ms_p50 and
// builds_per_s, and every workload's setup_s, are reported at a fixed
// reference speed: each is its raw value times refNominalMs over the
// mean time of a reference job sampled in the same phase. Raw values
// and the reference job's own time are printed by every run and reported
// by the traced one.
//
// The reference job uses the Go standard library alone, so no change to
// the repository's code moves it. It has the shape of a warm cas.Open:
// checksum-verify and JSON-decode refLines journal lines, then read and
// hash refBlobs files of refBlobBytes each. It runs in a child
// process with a heap of its own, so the measured program's allocation
// and collection neither slow it nor are disturbed by it, and it is
// sampled only while the measured process is idle: between a CLI
// workload's invocations, and in a burst after each set-up round.

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

const (
	// refNominalMs is the reference job's mean time on the host the
	// bounds were set on (2 vCPUs of a shared Xeon VM): a gated time is
	// what the build would have taken had the job run this fast.
	refNominalMs = 4.0
	// refInterval is the least time between two samples of the
	// reference job between a CLI workload's invocations.
	refInterval = 100 * time.Millisecond
	// refBurst is how many samples a burst takes.
	refBurst = 10

	refLines     = 400
	refBlobs     = 128
	refBlobBytes = 8 << 10

	// refServeArg makes the binary serve reference jobs (serveRef).
	refServeArg = "-serve-reference-job"
)

// refRecord is the journal line the reference job decodes: the shape of
// a cas step record.
type refRecord struct {
	T    string `json:"t"`
	Step *struct {
		Key   string `json:"key"`
		Layer string `json:"layer,omitempty"`
	} `json:"step,omitempty"`
}

// refInput is the reference job's fixed input: journal lines in memory
// and blob files in a directory of the child's own. Only the child
// process builds it, so it adds nothing to the measured process's heap.
type refInput struct {
	journal []string
	blobs   []string // file paths
}

func newRefInput(dir string) (refInput, error) {
	lines := make([]string, refLines)
	for i := range lines {
		payload := fmt.Sprintf(`{"t":"step","step":{"key":"sha256:%064x","layer":"sha256:%064x"}}`,
			uint64(i)*2654435761, uint64(i)*40503)
		sum := sha256.Sum256([]byte(payload))
		lines[i] = hex.EncodeToString(sum[:]) + " " + payload
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return refInput{}, err
	}
	blobs := make([]string, refBlobs)
	data := make([]byte, refBlobBytes)
	for i := range blobs {
		for j := range data {
			data[j] = byte(i + 13*j)
		}
		blobs[i] = filepath.Join(dir, fmt.Sprintf("blob%d", i))
		if err := os.WriteFile(blobs[i], data, 0o644); err != nil {
			return refInput{}, err
		}
	}
	return refInput{lines, blobs}, nil
}

// refSink keeps the blob hashes live.
var refSink byte

// refJob runs the reference job once and returns its wall time in ms.
func refJob(in refInput) float64 {
	t0 := time.Now()
	for _, line := range in.journal {
		sum, payload, _ := strings.Cut(line, " ")
		h := sha256.Sum256([]byte(payload))
		var rec refRecord
		if hex.EncodeToString(h[:]) != sum || json.Unmarshal([]byte(payload), &rec) != nil || rec.Step == nil {
			panic("chbench: reference journal line does not verify")
		}
	}
	for _, p := range in.blobs {
		data, err := os.ReadFile(p)
		if err != nil || len(data) != refBlobBytes {
			panic(fmt.Sprintf("chbench: reference blob %s: %d bytes, %v", p, len(data), err))
		}
		sum := sha256.Sum256(data)
		refSink ^= sum[0]
	}
	return ms(time.Since(t0))
}

// serveRef is the child process, keeping its blob files in dir: for
// each line it reads, it runs the reference job and writes its time in ms
// as one line. It returns when its input ends, which is also when the
// parent exits.
func serveRef(dir string, in io.Reader, out io.Writer) int {
	input, err := newRefInput(dir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ch-bench: reference job: %v\n", err)
		return 1
	}
	r := bufio.NewReader(in)
	for {
		if _, err := r.ReadString('\n'); err != nil {
			return 0
		}
		if _, err := fmt.Fprintf(out, "%g\n", refJob(input)); err != nil {
			return 1
		}
	}
}

// refProc is the parent's handle on the child process.
type refProc struct {
	cmd *exec.Cmd
	in  io.WriteCloser
	out *bufio.Reader
}

// startRef starts the child process from this program's own binary,
// keeping its files in dir.
func startRef(dir string) (*refProc, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("reference job: %w", err)
	}
	cmd := exec.Command(exe, refServeArg, dir)
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, fmt.Errorf("reference job: %w", err)
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, fmt.Errorf("reference job: %w", err)
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("reference job: %w", err)
	}
	return &refProc{cmd: cmd, in: in, out: bufio.NewReader(out)}, nil
}

// job runs the reference job once in the child and returns its time.
func (p *refProc) job() (float64, error) {
	if _, err := io.WriteString(p.in, "\n"); err != nil {
		return 0, fmt.Errorf("reference job: %w", err)
	}
	line, err := p.out.ReadString('\n')
	if err != nil {
		return 0, fmt.Errorf("reference job: %w", err)
	}
	return strconv.ParseFloat(strings.TrimSpace(line), 64)
}

// stop ends the child and waits for it.
func (p *refProc) stop() error {
	p.in.Close()
	return p.cmd.Wait()
}

// hostRef collects reference-job samples over one phase. The first
// failed sample stops the sampling and is kept in err.
type hostRef struct {
	proc    *refProc
	samples []float64
	last    time.Time
	err     error
}

// sample runs the reference job once.
func (h *hostRef) sample() {
	if h.err != nil {
		return
	}
	v, err := h.proc.job()
	if err != nil {
		h.err = err
		return
	}
	h.samples = append(h.samples, v)
	h.last = time.Now()
}

// tick samples the reference job once refInterval has passed since the
// last sample. Ticks at a steady pace give samples evenly spread over the
// phase, so each half of them covers one half of it.
func (h *hostRef) tick() {
	if time.Since(h.last) >= refInterval {
		h.sample()
	}
}

// burst samples the reference job refBurst times back to back.
func (h *hostRef) burst() {
	for k := 0; k < refBurst; k++ {
		h.sample()
	}
}

// mean is the reference job's mean time over the phase, in ms. A mean,
// not a median: the host's slow moments slow the measured program more
// than they slow the job, and a median of the job's samples passes over
// them. Over ten noisy runs of a CLI workload, build_ms_p50 scaled by the
// mean spread half as much as scaled by the median.
func (h *hostRef) mean() float64 { return mean(h.samples) }

// scale is the factor that takes a time measured over the phase to the
// reference speed.
func (h *hostRef) scale() float64 { return scaleOf(h.samples) }

// halfScales are the scales of the first and second half of the phase.
func (h *hostRef) halfScales() (float64, float64) {
	n := len(h.samples) / 2
	return scaleOf(h.samples[:n]), scaleOf(h.samples[n:])
}

func scaleOf(samples []float64) float64 {
	if len(samples) == 0 {
		return 1
	}
	return refNominalMs / mean(samples)
}

// print reports the phase's reference job and the factor it gives.
func (h *hostRef) print(w io.Writer) {
	fmt.Fprintf(w, "  host reference job: mean %.4f ms over %d samples, scale %.4f (times at %.1f ms)\n",
		h.mean(), len(h.samples), h.scale(), refNominalMs)
}

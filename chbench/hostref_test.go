package main

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
)

func TestServeRefAnswersEachRequest(t *testing.T) {
	var out bytes.Buffer
	if code := serveRef(t.TempDir(), strings.NewReader("\n\n\n"), &out); code != 0 {
		t.Fatalf("serveRef exited %d", code)
	}
	lines := strings.Fields(out.String())
	if len(lines) != 3 {
		t.Fatalf("got %d answers for 3 requests: %q", len(lines), out.String())
	}
	for _, l := range lines {
		if v, err := strconv.ParseFloat(l, 64); err != nil || v <= 0 {
			t.Errorf("answer %q is not a positive time", l)
		}
	}
}

func TestScaleTakesTimesToReferenceSpeed(t *testing.T) {
	// A host twice as slow as the reference doubles the job's time and
	// halves the scale; here it is so for the second half of the phase.
	h := hostRef{samples: []float64{refNominalMs, refNominalMs, 2 * refNominalMs, 2 * refNominalMs}}
	if got := h.scale(); got != 1/1.5 {
		t.Errorf("scale = %g, want %g (the mean sample is 1.5 times the nominal)", got, 1/1.5)
	}
	first, second := h.halfScales()
	if first != 1 || second != 0.5 {
		t.Errorf("half scales = %g, %g; want 1, 0.5", first, second)
	}
	if got := (&hostRef{}).scale(); got != 1 {
		t.Errorf("scale with no samples = %g, want 1", got)
	}
}

package main

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
)

// quantile is the nearest-rank q-quantile of xs (xs need not be sorted;
// it is not modified). It returns 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

// mean is the arithmetic mean of xs, 0 when empty.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// p99Tail is the highest percentile reported for n samples: p99 once ten
// samples lie beyond it, else the largest percentile that keeps ten
// beyond it (the median when n < 20).
func p99Tail(n int) float64 {
	q := 0.99
	if n > 0 && float64(n)*(1-q) < 10 {
		q = math.Max(0.5, 1-10/float64(n))
	}
	return q
}

// counters reads the default obs registry into a series → value map
// keyed exactly as the Prometheus renderer writes it (`name{l="v"}` or a
// bare name) — the same numbers an operator scrapes from /metrics.
func counters() map[string]float64 {
	var b bytes.Buffer
	if err := obs.Default.WritePrometheus(&b); err != nil {
		return map[string]float64{}
	}
	return parseExposition(b.String())
}

// parseExposition parses Prometheus text exposition into series → value.
// Lines it cannot parse are skipped.
func parseExposition(text string) map[string]float64 {
	series := map[string]float64{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[sp+1:], 64); err == nil {
			series[line[:sp]] = v
		}
	}
	return series
}

// delta is after[k] - before[k].
func delta(before, after map[string]float64, k string) float64 { return after[k] - before[k] }

// storeBytes is what a cas store occupies on disk: its blob files plus
// its journal.
func storeBytes(root string) (blobs, journal int64) {
	filepath.WalkDir(filepath.Join(root, "blobs"), func(_ string, e os.DirEntry, err error) error {
		if err == nil && e.Type().IsRegular() {
			if info, err := e.Info(); err == nil {
				blobs += info.Size()
			}
		}
		return nil
	})
	if st, err := os.Stat(filepath.Join(root, "journal")); err == nil {
		journal = st.Size()
	}
	return blobs, journal
}

const mib = 1 << 20

package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/scenario"
	"repro/internal/stats"
)

// minBeyond is the number of samples that must lie beyond a reported
// tail percentile for it to mean anything.
const minBeyond = 10

// tailLevels are the percentiles a tail may be reported at, highest
// first.
var tailLevels = []float64{99.9, 99, 95, 90, 75, 50}

// rank is the 1-based nearest-rank position of percentile p among n
// sorted samples. p is taken in whole per-mille, so that 99.9 does not
// pick up a floating-point excess and round one rank too high.
func rank(n int, p float64) int {
	pm := int(math.Round(p * 10))
	r := (pm*n + 999) / 1000
	if r < 1 {
		r = 1
	}
	return r
}

// beyond is the number of samples strictly above percentile p's rank.
func beyond(n int, p float64) int { return n - rank(n, p) }

// tailLevel returns the highest percentile of tailLevels with at least
// minBeyond samples beyond it among n samples, or 0 if none has.
func tailLevel(n int) float64 {
	for _, p := range tailLevels {
		if beyond(n, p) >= minBeyond {
			return p
		}
	}
	return 0
}

// percentile returns the nearest-rank percentile p of sorted.
func percentile(sorted []float64, p float64) float64 {
	return sorted[rank(len(sorted), p)-1]
}

// median returns the median of values (the mean of the middle two for
// an even count); values is not modified.
func median(values []float64) float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// fingerprint hashes everything a report says about the simulated run:
// counters, per-flow verdicts, latency distributions, rows and notes.
// The scenario name and the telemetry series are left out, so a
// benchmark-registered variant of a scenario, traced or not, must
// reproduce the registered scenario's fingerprint exactly.
func fingerprint(r *scenario.Report) string {
	var b strings.Builder
	fmt.Fprintf(&b, "window=%d tx=%d/%d rx=%d/%d crc=%d missed=%d lostprobes=%d\n",
		r.Window, r.TxPackets, r.TxBytes, r.RxPackets, r.RxBytes, r.RxCRCErrors, r.RxMissed, r.LostProbes)
	writeHist(&b, "latency", r.Latency)
	for _, f := range r.Flows {
		fmt.Fprintf(&b, "flow %q tx=%d rx=%d lost=%d reord=%d dup=%d fault=%d recov=%d\n",
			f.Name, f.TxPackets, f.RxPackets, f.Lost, f.Reordered, f.Duplicates, f.LostDuringFault, f.LostInRecovery)
		writeHist(&b, "flow-latency", f.Latency)
	}
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "row %q %v %q\n", row.Label, row.Value, row.Unit)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note %q\n", n)
	}
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:8])
}

func writeHist(b *strings.Builder, label string, h *stats.Histogram) {
	if h == nil || h.Count() == 0 {
		return
	}
	q1, q2, q3 := h.Quartiles()
	fmt.Fprintf(b, "%s n=%d min=%d q=%d/%d/%d max=%d mean=%d\n",
		label, h.Count(), h.Min(), q1, q2, q3, h.Max(), h.Mean())
}

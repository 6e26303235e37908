package main

import (
	"math"
	"slices"
)

// recorder keeps every latency of one phase exactly, grouped into the
// phase's fixed windows, and reduces them to the median over windows of
// a per-window quantile. It replaces metrics.Histogram for the benchmark:
// the histogram's log₂ buckets cannot resolve anything finer than 2×, and
// one CPU-steal stall inside a phase-wide percentile moves it by orders
// of magnitude, while it spoils only one window here.
//
// A recorder has a single writer (the driver goroutine).
type recorder struct {
	win [][]uint32 // latencies in ns; saturates at ~4.29 s
}

// newRecorder pre-allocates capPerWindow slots in each of n windows, so
// recording allocates nothing until a window outgrows its estimate.
func newRecorder(n, capPerWindow int) *recorder {
	r := &recorder{win: make([][]uint32, n)}
	for i := range r.win {
		r.win[i] = make([]uint32, 0, capPerWindow)
	}
	return r
}

// add records one latency in window w. Samples that fall outside the
// phase (completions during the drain) are not part of any window.
func (r *recorder) add(w int, ns int64) {
	if w < 0 || w >= len(r.win) {
		return
	}
	if ns < 0 {
		ns = 0
	}
	if ns > math.MaxUint32 {
		ns = math.MaxUint32
	}
	r.win[w] = append(r.win[w], uint32(ns))
}

// total returns the number of samples recorded.
func (r *recorder) total() int {
	n := 0
	for _, w := range r.win {
		n += len(w)
	}
	return n
}

// counts returns the number of samples in every window.
func (r *recorder) counts() []int {
	out := make([]int, len(r.win))
	for i, w := range r.win {
		out[i] = len(w)
	}
	return out
}

// windowQuantiles sorts each window and returns its q-quantile in ns;
// empty windows are skipped, not reported as zero.
func (r *recorder) windowQuantiles(q float64) []float64 {
	out := make([]float64, 0, len(r.win))
	for _, w := range r.win {
		if len(w) == 0 {
			continue
		}
		slices.Sort(w)
		out = append(out, quantile(w, q))
	}
	return out
}

// medianOfWindows is the reported reduction: the median over windows of
// the per-window q-quantile, in ns; 0 when every window is empty.
func (r *recorder) medianOfWindows(q float64) float64 {
	return median(r.windowQuantiles(q))
}

// quantile returns the q-quantile of an ascending slice by linear
// interpolation between closest ranks, so q=0.5 of an even count is the
// mean of the two middle samples.
func quantile[T uint32 | float64](sorted []T, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return float64(sorted[lo])*(1-frac) + float64(sorted[hi])*frac
}

// median sorts a copy of vs and returns its median; 0 for an empty slice.
func median(vs []float64) float64 {
	s := slices.Clone(vs)
	slices.Sort(s)
	return quantile(s, 0.5)
}

// spread is the interquartile range of vs as a share of its median — the
// run-to-run (or window-to-window) noise figure bounds are judged against.
func spread(vs []float64) float64 {
	s := slices.Clone(vs)
	slices.Sort(s)
	m := quantile(s, 0.5)
	if m == 0 {
		return 0
	}
	return (quantile(s, 0.75) - quantile(s, 0.25)) / m
}

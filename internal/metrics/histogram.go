package metrics

import (
	"fmt"
	"math/bits"
	"time"
)

// Histogram is a log₂-bucketed latency histogram: bucket i counts samples
// in [2^i, 2^(i+1)) nanoseconds. Each is written by one party — a worker
// thread (ThreadStats.Latency) or its WAL acknowledgments (AckLatency) —
// without synchronization, and they are merged at aggregation time: the
// same discipline as the counters.
type Histogram struct {
	buckets [48]uint64 // 2^47ns ≈ 39h: more than any transaction takes
	count   uint64
	sum     uint64 // nanoseconds
	max     uint64
}

// Record adds one latency sample.
func (h *Histogram) Record(d time.Duration) {
	ns := uint64(d)
	if d <= 0 {
		ns = 1
	}
	idx := bits.Len64(ns) - 1
	if idx >= len(h.buckets) {
		idx = len(h.buckets) - 1
	}
	h.buckets[idx]++
	h.count++
	h.sum += ns
	if ns > h.max {
		h.max = ns
	}
}

// Merge folds other into h.
func (h *Histogram) Merge(other *Histogram) {
	for i := range h.buckets {
		h.buckets[i] += other.buckets[i]
	}
	h.count += other.count
	h.sum += other.sum
	if other.max > h.max {
		h.max = other.max
	}
}

// Count returns the number of recorded samples.
func (h *Histogram) Count() uint64 { return h.count }

// Mean returns the average latency, or 0 with no samples.
func (h *Histogram) Mean() time.Duration {
	if h.count == 0 {
		return 0
	}
	return time.Duration(h.sum / h.count)
}

// Max returns the largest recorded sample.
func (h *Histogram) Max() time.Duration { return time.Duration(h.max) }

// Percentile returns an upper bound on the p-th percentile latency
// (0 < p <= 100): the upper edge of the bucket containing that rank.
func (h *Histogram) Percentile(p float64) time.Duration {
	if h.count == 0 {
		return 0
	}
	if p > 100 {
		p = 100
	}
	rank := uint64(p / 100 * float64(h.count))
	if rank == 0 {
		rank = 1
	}
	var seen uint64
	for i, n := range h.buckets {
		seen += n
		if seen >= rank {
			upper := time.Duration(uint64(1) << (i + 1))
			if upper > time.Duration(h.max) && h.max > 0 {
				return time.Duration(h.max)
			}
			return upper
		}
	}
	return time.Duration(h.max)
}

// String implements fmt.Stringer with the common latency summary.
func (h *Histogram) String() string {
	return fmt.Sprintf("n=%d mean=%v p50=%v p99=%v max=%v",
		h.count, h.Mean(), h.Percentile(50), h.Percentile(99), h.Max())
}

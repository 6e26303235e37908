package main

import (
	"math/rand"
	"slices"
	"testing"
)

// refMedian is the sorted reference the reducer is checked against.
func refMedian(vs []uint32) float64 {
	s := slices.Clone(vs)
	slices.Sort(s)
	if n := len(s); n%2 == 1 {
		return float64(s[n/2])
	} else {
		return (float64(s[n/2-1]) + float64(s[n/2])) / 2
	}
}

func TestQuantileAgainstSortedReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 3, 4, 5, 100, 101} { // odd and even counts
		vs := make([]uint32, n)
		for i := range vs {
			vs[i] = uint32(rng.Intn(1_000_000))
		}
		r := newRecorder(1, 0)
		for _, v := range vs {
			r.add(0, int64(v))
		}
		if got, want := r.medianOfWindows(0.5), refMedian(vs); got != want {
			t.Errorf("n=%d: median %v, reference %v", n, got, want)
		}
		sorted := slices.Clone(vs)
		slices.Sort(sorted)
		if got := quantile(sorted, 0); got != float64(sorted[0]) {
			t.Errorf("n=%d: q0 %v, want min %v", n, got, sorted[0])
		}
		if got := quantile(sorted, 1); got != float64(sorted[n-1]) {
			t.Errorf("n=%d: q1 %v, want max %v", n, got, sorted[n-1])
		}
	}
	if got := quantile([]uint32{10, 20, 30, 40, 50}, 0.25); got != 20 {
		t.Errorf("q0.25 of 10..50 = %v, want 20", got)
	}
	if got := quantile([]uint32{10, 20}, 0.75); got != 17.5 {
		t.Errorf("q0.75 of {10,20} = %v, want 17.5 (interpolated)", got)
	}
}

func TestEmptyWindowsAreSkippedNotZero(t *testing.T) {
	r := newRecorder(4, 0)
	if got := r.medianOfWindows(0.5); got != 0 {
		t.Errorf("all windows empty: got %v, want 0", got)
	}
	r.add(0, 100)
	r.add(2, 300) // windows 1 and 3 stay empty
	if got := r.windowQuantiles(0.5); !slices.Equal(got, []float64{100, 300}) {
		t.Errorf("window medians %v, want [100 300]", got)
	}
	if got := r.medianOfWindows(0.5); got != 200 {
		t.Errorf("median over non-empty windows %v, want 200", got)
	}
	r.add(-1, 5) // outside the phase: completed during the drain
	r.add(4, 5)
	if got := r.counts(); !slices.Equal(got, []int{1, 0, 1, 0}) {
		t.Errorf("counts %v: out-of-phase samples must not land in a window", got)
	}
}

// One window swallowed by a stall (every latency 100 ms) must move the
// phase-wide median but not the median over windows.
func TestStalledWindowDoesNotSetTheReportedMedian(t *testing.T) {
	r := newRecorder(5, 0)
	var all []uint32
	for w := 0; w < 5; w++ {
		for i := 0; i < 1001; i++ {
			v := uint32(8000 + i) // ≈ 8 µs
			if w == 3 {
				v = 100_000_000
			}
			r.add(w, int64(v))
			all = append(all, v)
		}
	}
	if got := r.medianOfWindows(0.5); got != 8500 {
		t.Errorf("median over windows %v, want 8500", got)
	}
	if got := r.medianOfWindows(0.99); got > 9001 {
		t.Errorf("p99 over windows %v: the stalled window leaked through", got)
	}
	if ref := refMedian(all); ref >= 100_000_000 {
		t.Fatalf("reference %v: the stall should not own the pooled median either in this construction", ref)
	}
	// Saturation instead of wrap-around for an absurd latency.
	r2 := newRecorder(1, 0)
	r2.add(0, 1<<40)
	if got := r2.medianOfWindows(0.5); got != float64(^uint32(0)) {
		t.Errorf("saturated latency %v, want MaxUint32", got)
	}
}

func TestSpread(t *testing.T) {
	if got := spread([]float64{90, 100, 110, 100, 100}); got != 0 {
		t.Errorf("spread %v, want 0 (quartiles coincide with the median)", got)
	}
	if got := spread([]float64{80, 90, 100, 110, 120}); got != 0.2 {
		t.Errorf("spread %v, want 0.2", got)
	}
	if got := spread(nil); got != 0 {
		t.Errorf("spread of nothing %v, want 0", got)
	}
}

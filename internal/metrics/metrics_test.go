package metrics

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTotalsAggregation(t *testing.T) {
	s := NewSet(3)
	for i := 0; i < 3; i++ {
		th := s.Thread(i)
		th.Committed = uint64(i + 1)
		th.Aborted = uint64(i)
		th.AddExec(time.Duration(i+1) * time.Millisecond)
		th.AddLock(2 * time.Millisecond)
		th.AddWait(time.Millisecond)
	}
	tot := s.Totals()
	if tot.Committed != 6 || tot.Aborted != 3 {
		t.Fatalf("totals = %+v", tot)
	}
	if tot.Exec != 6*time.Millisecond || tot.Lock != 6*time.Millisecond || tot.Wait != 3*time.Millisecond {
		t.Fatalf("time totals = %+v", tot)
	}
}

func TestBreakdownPercentages(t *testing.T) {
	tot := Totals{Exec: 20, Lock: 30, Wait: 50}
	e, l, w, lg := tot.Breakdown()
	if math.Abs(e-20) > 1e-9 || math.Abs(l-30) > 1e-9 || math.Abs(w-50) > 1e-9 || lg != 0 {
		t.Fatalf("breakdown = %v %v %v %v", e, l, w, lg)
	}
	if math.Abs(e+l+w-100) > 1e-9 {
		t.Fatal("percentages do not sum to 100")
	}
	// With a durability flush stall the log share joins the split.
	e, l, w, lg = Totals{Exec: 25, Lock: 25, Wait: 25, Log: 25}.Breakdown()
	if math.Abs(lg-25) > 1e-9 || math.Abs(e+l+w+lg-100) > 1e-9 {
		t.Fatalf("log breakdown = %v %v %v %v", e, l, w, lg)
	}
	e, l, w, lg = Totals{}.Breakdown()
	if e != 0 || l != 0 || w != 0 || lg != 0 {
		t.Fatal("empty totals breakdown not zero")
	}
}

func TestAbortRate(t *testing.T) {
	if r := (Totals{Committed: 3, Aborted: 1}).AbortRate(); math.Abs(r-0.25) > 1e-9 {
		t.Fatalf("AbortRate = %v", r)
	}
	if (Totals{}).AbortRate() != 0 {
		t.Fatal("empty AbortRate != 0")
	}
}

func TestResultThroughputAndString(t *testing.T) {
	r := Result{System: "orthrus", Totals: Totals{Committed: 1000}, Duration: 2 * time.Second}
	if r.Throughput() != 500 {
		t.Fatalf("Throughput = %v", r.Throughput())
	}
	if (Result{}).Throughput() != 0 {
		t.Fatal("zero-duration throughput not 0")
	}
	s := r.String()
	if !strings.Contains(s, "orthrus") || !strings.Contains(s, "txns/s") {
		t.Fatalf("String = %q", s)
	}
}

// Concurrent per-thread updates must not race (validated by -race in CI)
// and must aggregate exactly.
func TestPerThreadIsolation(t *testing.T) {
	const threads, per = 8, 10000
	s := NewSet(threads)
	var wg sync.WaitGroup
	for i := 0; i < threads; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			th := s.Thread(i)
			for j := 0; j < per; j++ {
				th.Committed++
				th.AddExec(time.Nanosecond)
			}
		}(i)
	}
	wg.Wait()
	tot := s.Totals()
	if tot.Committed != threads*per {
		t.Fatalf("Committed = %d", tot.Committed)
	}
	if tot.Exec != threads*per {
		t.Fatalf("Exec = %d", tot.Exec)
	}
}

// Now carries a monotonic reading, so stamps subtract monotonically with
// each other and with time.Since, and it stays beside time.Now.
func TestNowIsMonotonic(t *testing.T) {
	a := Now()
	if !strings.Contains(a.String(), " m=") {
		t.Fatalf("Now() = %v has no monotonic reading", a)
	}
	b := Now()
	if d := b.Sub(a); d < 0 {
		t.Fatalf("Now went backwards by %v", -d)
	}
	if d := time.Since(a); d < b.Sub(a) {
		t.Fatalf("time.Since(a) = %v, shorter than a later stamp's %v", d, b.Sub(a))
	}
	if d := time.Now().Sub(Now()); d > time.Second || d < -time.Second {
		t.Fatalf("Now is %v from time.Now", d)
	}
}

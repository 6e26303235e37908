package engine

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/txn"
)

// The intake's ring must neither lose nor duplicate submissions under
// concurrent producers (each backing off in Submit while it is full) and
// consumers, and every taken submission retires the count Close waits on.
func TestMPMCConcurrentSum(t *testing.T) {
	const producers, consumers, perProducer = 4, 3, 5000
	q := NewIntake("test", 64, nil)
	var want, got atomic.Int64
	var wg sync.WaitGroup
	var remaining atomic.Int64
	remaining.Store(producers * perProducer)

	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				v := int64(p*perProducer + i + 1)
				want.Add(v)
				q.Submit(&txn.Txn{ID: uint64(v)}, nil)
			}
		}(p)
	}
	for c := 0; c < consumers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var idle IdleWaiter
			for remaining.Load() > 0 {
				sub, ok := q.Next()
				if !ok {
					idle.Wait()
					continue
				}
				idle.Reset()
				got.Add(int64(sub.Txn.ID))
				remaining.Add(-1)
				q.Done()
			}
		}()
	}
	wg.Wait()
	if got.Load() != want.Load() {
		t.Fatalf("sum %d, want %d (lost or duplicated submissions)", got.Load(), want.Load())
	}
	if _, ok := q.Next(); ok {
		t.Fatal("queue should be empty")
	}
	q.Close() // returns only once every submission has been retired
}

// A single producer/consumer pair must observe FIFO order.
func TestMPMCFIFO(t *testing.T) {
	q := NewIntake("test", 8, nil)
	for i := 1; i <= 8; i++ {
		if !q.tryEnqueue(Submission{Txn: &txn.Txn{ID: uint64(i)}}) {
			t.Fatalf("enqueue %d refused", i)
		}
	}
	if q.tryEnqueue(Submission{Txn: &txn.Txn{}}) {
		t.Fatal("enqueue beyond capacity succeeded")
	}
	for i := 1; i <= 8; i++ {
		sub, ok := q.Next()
		if !ok || sub.Txn.ID != uint64(i) {
			t.Fatalf("dequeue %d: got %v ok=%v", i, sub.Txn, ok)
		}
	}
}

// Regression: a non-positive capacity used to make the power-of-two
// doubling loop compare against a huge unsigned value and spin forever
// once n overflowed to zero. NewIntake must clamp instead.
func TestMPMCNonPositiveCapacity(t *testing.T) {
	for _, capacity := range []int{0, -1} {
		q := NewIntake("test", capacity, nil)
		if got := len(q.cells); got != 1 {
			t.Fatalf("NewIntake(%d) capacity = %d, want 1", capacity, got)
		}
		if !q.tryEnqueue(Submission{Txn: &txn.Txn{ID: 42}}) {
			t.Fatalf("NewIntake(%d): enqueue refused on empty queue", capacity)
		}
		sub, ok := q.Next()
		if !ok || sub.Txn.ID != 42 {
			t.Fatalf("NewIntake(%d): dequeue = (%v,%v)", capacity, sub.Txn, ok)
		}
	}
}

// Backpressure: a Submit past capacity does not return while the ring is
// full, and does return once a consumer takes a submission. Nothing here
// races a deadline: the blocked Submit is located through the in-flight
// count it has already bumped, and the last wait is bounded only against
// a hang.
func TestIntakeSubmitBlocksWhileFull(t *testing.T) {
	in := NewIntake("test", 2, nil)
	in.Submit(&txn.Txn{ID: 1}, nil)
	in.Submit(&txn.Txn{ID: 2}, nil)
	returned := make(chan struct{})
	go func() {
		in.Submit(&txn.Txn{ID: 3}, nil)
		close(returned)
	}()
	for in.inflight.Load() != 3 {
		runtime.Gosched()
	}
	for i := 0; i < 1000; i++ {
		select {
		case <-returned:
			t.Fatal("Submit returned while the intake was full")
		default:
			runtime.Gosched()
		}
	}
	if sub, ok := in.Next(); !ok || sub.Txn.ID != 1 {
		t.Fatalf("Next = (%v, %v), want txn 1", sub.Txn, ok)
	}
	select {
	case <-returned:
	case <-time.After(time.Minute):
		t.Fatal("Submit still blocked a minute after a consumer made room")
	}
	for _, id := range []uint64{2, 3} {
		if sub, ok := in.Next(); !ok || sub.Txn.ID != id {
			t.Fatalf("Next = (%v, %v), want txn %d", sub.Txn, ok, id)
		}
	}
}

// Close latches once: it stops the consumers, and a second Close panics
// instead of releasing a newer session's in-use guard.
func TestIntakeSecondClosePanics(t *testing.T) {
	in := NewIntake("test", 4, nil)
	in.Close()
	if !in.Stopped() {
		t.Fatal("Close returned without stopping the intake")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("second Close did not panic")
		}
	}()
	in.Close()
}

// A negative in-flight count means unbalanced Done calls; Drain must
// fail loudly instead of spinning past zero forever.
func TestGaugeNegativePanics(t *testing.T) {
	in := NewIntake("test", 1, nil)
	in.Done()
	defer func() {
		if recover() == nil {
			t.Fatal("Drain on a negative in-flight count did not panic")
		}
	}()
	in.Drain()
}

// Drain returns exactly when every submission has been retired.
func TestGaugeWaitsForZero(t *testing.T) {
	in := NewIntake("test", 2, nil)
	in.Submit(&txn.Txn{}, nil)
	in.Submit(&txn.Txn{}, nil)
	done := make(chan struct{})
	go func() {
		in.Drain()
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("Drain returned with submissions in flight")
	case <-time.After(5 * time.Millisecond):
	}
	in.Done()
	in.Done()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("Drain did not return at zero")
	}
}

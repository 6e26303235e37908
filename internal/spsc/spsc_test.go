package spsc

import (
	"runtime"
	"sync"
	"testing"
	"testing/quick"
)

func TestRingCapacityRounding(t *testing.T) {
	cases := []struct{ in, want int }{
		{0, 1}, {1, 1}, {2, 2}, {3, 4}, {5, 8}, {8, 8}, {1000, 1024},
	}
	for _, c := range cases {
		if got := New[int](c.in).Cap(); got != c.want {
			t.Errorf("New(%d).Cap() = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestRingFIFOSingleThread(t *testing.T) {
	r := New[int](4)
	for i := 0; i < 4; i++ {
		if !r.TryEnqueue(i) {
			t.Fatalf("TryEnqueue(%d) failed on non-full ring", i)
		}
	}
	if r.TryEnqueue(99) {
		t.Fatal("TryEnqueue succeeded on full ring")
	}
	for i := 0; i < 4; i++ {
		v, ok := r.TryDequeue()
		if !ok || v != i {
			t.Fatalf("TryDequeue = (%d,%v), want (%d,true)", v, ok, i)
		}
	}
	if _, ok := r.TryDequeue(); ok {
		t.Fatal("TryDequeue succeeded on empty ring")
	}
}

func TestRingWrapAround(t *testing.T) {
	r := New[int](2)
	for round := 0; round < 1000; round++ {
		if !r.TryEnqueue(round) {
			t.Fatalf("round %d: enqueue failed", round)
		}
		v, ok := r.TryDequeue()
		if !ok || v != round {
			t.Fatalf("round %d: got (%d,%v)", round, v, ok)
		}
	}
}

func TestRingLen(t *testing.T) {
	r := New[int](8)
	if r.Len() != 0 {
		t.Fatalf("empty Len = %d", r.Len())
	}
	r.TryEnqueue(1)
	r.TryEnqueue(2)
	if r.Len() != 2 {
		t.Fatalf("Len = %d, want 2", r.Len())
	}
	r.TryDequeue()
	if r.Len() != 1 {
		t.Fatalf("Len = %d, want 1", r.Len())
	}
}

func TestRingClose(t *testing.T) {
	r := New[int](2)
	r.TryEnqueue(7)
	r.Close()
	if !r.Closed() {
		t.Fatal("Closed() = false after Close")
	}
	// Drain continues after close.
	if v, ok := r.Dequeue(); !ok || v != 7 {
		t.Fatalf("Dequeue after close = (%d,%v)", v, ok)
	}
	if _, ok := r.Dequeue(); ok {
		t.Fatal("Dequeue on closed empty ring returned ok")
	}
	// Enqueue on a full closed ring unblocks with false.
	r2 := New[int](1)
	r2.TryEnqueue(1)
	r2.Close()
	if r2.Enqueue(2) {
		t.Fatal("Enqueue returned true on closed full ring")
	}
}

// TestRingConcurrentFIFO is the core correctness test: one producer, one
// consumer, every element delivered exactly once and in order.
func TestRingConcurrentFIFO(t *testing.T) {
	const n = 200000
	r := New[int](64)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			if !r.Enqueue(i) {
				t.Error("Enqueue failed")
				return
			}
		}
	}()
	for i := 0; i < n; i++ {
		v, ok := r.Dequeue()
		if !ok {
			t.Fatalf("Dequeue failed at %d", i)
		}
		if v != i {
			t.Fatalf("out of order: got %d at position %d", v, i)
		}
	}
	wg.Wait()
	if _, ok := r.TryDequeue(); ok {
		t.Fatal("ring not empty after draining all elements")
	}
}

// FIFO order must hold across arbitrarily mixed batch and single
// enqueues/dequeues — batching changes how many atomic operations publish
// the elements, never their order.
func TestRingBatchMixedFIFO(t *testing.T) {
	r := New[int](16)
	next := 0 // next value to enqueue
	mk := func(k int) []int {
		vs := make([]int, k)
		for i := range vs {
			vs[i] = next
			next++
		}
		return vs
	}
	if n := r.TryEnqueueBatch(mk(3)); n != 3 {
		t.Fatalf("batch enqueue = %d, want 3", n)
	}
	if !r.TryEnqueue(next) {
		t.Fatal("single enqueue failed")
	}
	next++
	if n := r.TryEnqueueBatch(mk(5)); n != 5 {
		t.Fatalf("batch enqueue = %d, want 5", n)
	}

	want := 0
	buf := make([]int, 4)
	if n := r.DequeueBatch(buf); n != 4 {
		t.Fatalf("batch dequeue = %d, want 4", n)
	}
	for i := 0; i < 4; i++ {
		if buf[i] != want {
			t.Fatalf("batch dequeue[%d] = %d, want %d", i, buf[i], want)
		}
		want++
	}
	for i := 0; i < 2; i++ {
		v, ok := r.TryDequeue()
		if !ok || v != want {
			t.Fatalf("single dequeue = (%d,%v), want (%d,true)", v, ok, want)
		}
		want++
	}
	if n := r.DequeueBatch(buf); n != 3 {
		t.Fatalf("final batch dequeue = %d, want 3", n)
	}
	for i := 0; i < 3; i++ {
		if buf[i] != want {
			t.Fatalf("final dequeue[%d] = %d, want %d", i, buf[i], want)
		}
		want++
	}
	if _, ok := r.TryDequeue(); ok {
		t.Fatal("ring should be empty")
	}
}

// A batch that spans the ring's physical boundary must wrap correctly:
// enqueue/dequeue until the indices straddle the end of the backing
// array, then push batches larger than the remaining linear space.
func TestRingBatchWraparound(t *testing.T) {
	r := New[int](8)
	// Advance head/tail to 5 so a 6-element batch wraps past index 8.
	for i := 0; i < 5; i++ {
		r.TryEnqueue(-1)
		r.TryDequeue()
	}
	vs := []int{10, 11, 12, 13, 14, 15}
	if n := r.TryEnqueueBatch(vs); n != 6 {
		t.Fatalf("wrapping batch enqueue = %d, want 6", n)
	}
	buf := make([]int, 6)
	if n := r.DequeueBatch(buf); n != 6 {
		t.Fatalf("wrapping batch dequeue = %d, want 6", n)
	}
	for i, v := range vs {
		if buf[i] != v {
			t.Fatalf("wrap dequeue[%d] = %d, want %d", i, buf[i], v)
		}
	}
	// Exercise every phase offset for good measure.
	for round := 0; round < 100; round++ {
		if n := r.TryEnqueueBatch([]int{round, round + 1, round + 2}); n != 3 {
			t.Fatalf("round %d: enqueue = %d", round, n)
		}
		if n := r.DequeueBatch(buf[:3]); n != 3 {
			t.Fatalf("round %d: dequeue = %d", round, n)
		}
		if buf[0] != round || buf[1] != round+1 || buf[2] != round+2 {
			t.Fatalf("round %d: got %v", round, buf[:3])
		}
	}
}

// A batch larger than the free space enqueues a prefix and reports the
// short count; the remainder is the caller's to retry.
func TestRingBatchPartial(t *testing.T) {
	r := New[int](4)
	r.TryEnqueue(0)
	if n := r.TryEnqueueBatch([]int{1, 2, 3, 4, 5}); n != 3 {
		t.Fatalf("partial enqueue = %d, want 3 (capacity 4, one used)", n)
	}
	if n := r.TryEnqueueBatch([]int{9}); n != 0 {
		t.Fatalf("enqueue on full ring = %d, want 0", n)
	}
	buf := make([]int, 8)
	if n := r.DequeueBatch(buf); n != 4 {
		t.Fatalf("dequeue = %d, want 4", n)
	}
	for i := 0; i < 4; i++ {
		if buf[i] != i {
			t.Fatalf("dequeue[%d] = %d, want %d", i, buf[i], i)
		}
	}
	if n := r.DequeueBatch(buf); n != 0 {
		t.Fatalf("dequeue on empty ring = %d, want 0", n)
	}
	if n := r.TryEnqueueBatch(nil); n != 0 {
		t.Fatalf("empty batch enqueue = %d, want 0", n)
	}
	if n := r.DequeueBatch(nil); n != 0 {
		t.Fatalf("empty-buffer dequeue = %d, want 0", n)
	}
}

// Concurrent batched producer against a batched consumer: exactly-once,
// in-order delivery — the same guarantee TestRingConcurrentFIFO checks
// for the single-element operations.
func TestRingBatchConcurrentFIFO(t *testing.T) {
	const n = 200000
	r := New[int](64)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		vs := make([]int, 0, 7)
		sent := 0
		for sent < n {
			vs = vs[:0]
			for k := 0; k < 7 && sent+len(vs) < n; k++ {
				vs = append(vs, sent+len(vs))
			}
			for len(vs) > 0 {
				m := r.TryEnqueueBatch(vs)
				vs = vs[m:]
				sent += m
				if m == 0 {
					runtime.Gosched() // full: let the consumer run
				}
			}
		}
	}()
	buf := make([]int, 5)
	want := 0
	for want < n {
		m := r.DequeueBatch(buf)
		for i := 0; i < m; i++ {
			if buf[i] != want {
				t.Fatalf("out of order: got %d at position %d", buf[i], want)
			}
			want++
		}
		if m == 0 {
			runtime.Gosched() // empty: let the producer run
		}
	}
	wg.Wait()
	if _, ok := r.TryDequeue(); ok {
		t.Fatal("ring not empty after draining all elements")
	}
}

// Property: for any interleaved sequence of enqueues and dequeues issued by
// a single thread, the ring behaves exactly like a bounded FIFO model.
func TestRingMatchesFIFOModel(t *testing.T) {
	f := func(ops []uint8, capExp uint8) bool {
		capacity := 1 << (capExp % 5) // 1..16
		r := New[uint8](capacity)
		var model []uint8
		for i, op := range ops {
			if op%2 == 0 { // enqueue
				ok := r.TryEnqueue(op)
				wantOK := len(model) < r.Cap()
				if ok != wantOK {
					t.Logf("op %d: enqueue ok=%v want %v", i, ok, wantOK)
					return false
				}
				if ok {
					model = append(model, op)
				}
			} else { // dequeue
				v, ok := r.TryDequeue()
				wantOK := len(model) > 0
				if ok != wantOK {
					t.Logf("op %d: dequeue ok=%v want %v", i, ok, wantOK)
					return false
				}
				if ok {
					if v != model[0] {
						t.Logf("op %d: dequeue v=%d want %d", i, v, model[0])
						return false
					}
					model = model[1:]
				}
			}
			if r.Len() != len(model) {
				t.Logf("op %d: len=%d want %d", i, r.Len(), len(model))
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkRingPingPong lives in padding_bench_test.go, where it compares
// the padded Ring layout against an unpadded control; BenchmarkRingStream
// here keeps the one-way streaming number.
func BenchmarkRingStream(b *testing.B) {
	r := New[int](1024)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < b.N; i++ {
			r.Dequeue()
		}
	}()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Enqueue(i)
	}
	<-done
}

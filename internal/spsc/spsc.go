// Package spsc provides a latch-free single-producer single-consumer ring
// buffer, the message transport between ORTHRUS execution threads and
// concurrency-control threads (paper §3.1).
//
// Each ring has exactly one producer goroutine and one consumer goroutine.
// Under that discipline the head and tail indices are each written by only
// one side, so the ring needs no compare-and-swap and no mutual exclusion:
// the producer publishes a slot with a release store of the tail, and the
// consumer acknowledges it with a release store of the head. This mirrors
// the "standard latch-free circular buffer" the paper cites [31], and it is
// the reason ORTHRUS's message passing does not re-introduce the very
// synchronization overhead it is designed to remove.
//
// The ring offers non-blocking operations only — try one element, or a
// batch under one index store — and no close: ORTHRUS's logical threads
// may share a goroutine, so none of them may wait on a ring, and a session
// ends by its own protocol, not by closing its rings.
package spsc

import "sync/atomic"

// cacheLinePad separates hot fields written by different goroutines so the
// producer's tail and the consumer's head do not share a cache line. 128
// bytes, not 64: the adjacent-line prefetcher on common x86 parts pulls
// cache lines in aligned pairs, so a single-line pad still ping-pongs.
type cacheLinePad struct{ _ [128]byte }

// Ring is a bounded SPSC queue of T. The zero value is not usable; call New.
//
// Every operation is non-blocking: a full ring refuses an enqueue and an
// empty ring yields nothing; the caller decides what to do instead (an
// ORTHRUS thread keeps the refused tail in an outbox for its next step).
//
// The field layout groups by writer, not by role: each side's index and
// its private peer-cache share a line (one goroutine owns both, so that
// sharing is free), and the two groups are padded apart so neither side's
// stores invalidate the other's line. The cold fields, written once at
// construction, live on their own shared read-mostly line.
// BenchmarkRingPingPong in this package measures the layout against an
// unpadded control.
type Ring[T any] struct {
	// Cold line: buf/mask are written once in New.
	buf  []T
	mask uint64

	_ cacheLinePad
	// Producer line. cachedHead is the producer's last observed head,
	// avoiding an atomic load on every enqueue.
	tail       atomic.Uint64 // next slot to write; written only by producer
	cachedHead uint64

	_ cacheLinePad
	// Consumer line. cachedTail is the consumer's mirror image.
	head       atomic.Uint64 // next slot to read; written only by consumer
	cachedTail uint64

	_ cacheLinePad
}

// New returns a ring with capacity rounded up to the next power of two.
// Capacity must be at least 1.
func New[T any](capacity int) *Ring[T] {
	if capacity < 1 {
		capacity = 1
	}
	n := 1
	for n < capacity {
		n <<= 1
	}
	return &Ring[T]{buf: make([]T, n), mask: uint64(n - 1)}
}

// Cap returns the ring's capacity.
func (r *Ring[T]) Cap() int { return len(r.buf) }

// Len returns a point-in-time element count. It is exact only when called
// by the producer or consumer; concurrent callers see a snapshot.
func (r *Ring[T]) Len() int {
	return int(r.tail.Load() - r.head.Load())
}

// TryEnqueue appends v and reports whether there was room.
// Must be called only from the producer goroutine.
//
//orthrus:hotpath
func (r *Ring[T]) TryEnqueue(v T) bool {
	tail := r.tail.Load()
	if tail-r.cachedHead >= uint64(len(r.buf)) {
		r.cachedHead = r.head.Load()
		if tail-r.cachedHead >= uint64(len(r.buf)) {
			return false
		}
	}
	r.buf[tail&r.mask] = v
	r.tail.Store(tail + 1) // release: publishes buf write
	return true
}

// TryEnqueueBatch appends as many elements of vs as fit and returns the
// count, publishing them all with a single tail store — the batched
// producer operation the ORTHRUS message plane amortizes ring traffic
// with: k messages cost one atomic release instead of k. A short return
// (including 0) means the ring filled; the caller retries the remainder.
// Must be called only from the producer goroutine.
//
//orthrus:hotpath
func (r *Ring[T]) TryEnqueueBatch(vs []T) int {
	if len(vs) == 0 {
		return 0
	}
	tail := r.tail.Load()
	free := uint64(len(r.buf)) - (tail - r.cachedHead)
	if free < uint64(len(vs)) {
		r.cachedHead = r.head.Load()
		free = uint64(len(r.buf)) - (tail - r.cachedHead)
	}
	n := uint64(len(vs))
	if n > free {
		n = free
	}
	if n == 0 {
		return 0
	}
	for i := uint64(0); i < n; i++ {
		r.buf[(tail+i)&r.mask] = vs[i]
	}
	r.tail.Store(tail + n) // release: publishes all n buf writes
	return int(n)
}

// TryDequeue removes the oldest element. Must be called only from the
// consumer goroutine.
//
//orthrus:hotpath
func (r *Ring[T]) TryDequeue() (v T, ok bool) {
	head := r.head.Load()
	if head >= r.cachedTail {
		r.cachedTail = r.tail.Load()
		if head >= r.cachedTail {
			return v, false
		}
	}
	v = r.buf[head&r.mask]
	var zero T
	r.buf[head&r.mask] = zero // drop reference for GC
	r.head.Store(head + 1)    // release: frees the slot
	return v, true
}

// DequeueBatch removes up to len(buf) of the oldest elements into buf and
// returns the count, acknowledging them all with a single head store —
// the consumer mirror of TryEnqueueBatch. It never blocks; 0 means the
// ring was empty. Must be called only from the consumer goroutine.
//
//orthrus:hotpath
func (r *Ring[T]) DequeueBatch(buf []T) int {
	if len(buf) == 0 {
		return 0
	}
	head := r.head.Load()
	var avail uint64
	if r.cachedTail > head {
		avail = r.cachedTail - head
	}
	if avail < uint64(len(buf)) {
		r.cachedTail = r.tail.Load()
		avail = r.cachedTail - head
	}
	n := uint64(len(buf))
	if n > avail {
		n = avail
	}
	if n == 0 {
		return 0
	}
	var zero T
	for i := uint64(0); i < n; i++ {
		idx := (head + i) & r.mask
		buf[i] = r.buf[idx]
		r.buf[idx] = zero // drop reference for GC
	}
	r.head.Store(head + n) // release: frees all n slots
	return int(n)
}

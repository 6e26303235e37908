package engine

import (
	"runtime"
	"sync/atomic"
	"time"
)

// mpmc is a bounded multi-producer multi-consumer queue of Submissions
// (Vyukov's array-based design): every slot carries a sequence number that
// tickets exactly one producer and one consumer per lap, so an enqueue or
// dequeue is one CAS plus one release store — no mutex, no goroutine
// parking. It is the submission plane of WorkerSession, where a Go
// channel's lock and park/unpark cycle would dominate short transactions.
// The enqueue and dequeue cursors are padded 128 bytes apart (two cache
// lines, clearing the adjacent-line prefetcher) so producers CASing enq
// never invalidate the line consumers CAS deq on.
type mpmc struct {
	mask  uint64
	cells []mpmcCell
	_     [128]byte
	enq   atomic.Uint64
	_     [128]byte
	deq   atomic.Uint64
	_     [128]byte
}

type mpmcCell struct {
	seq atomic.Uint64
	sub Submission
}

// newMPMC returns a queue with capacity rounded up to a power of two.
// Capacity is clamped to at least 1: a negative value converted to uint64
// would otherwise send the doubling loop past overflow (n becomes 0 and
// never terminates).
func newMPMC(capacity int) *mpmc {
	if capacity < 1 {
		capacity = 1
	}
	n := uint64(1)
	for n < uint64(capacity) {
		n <<= 1
	}
	q := &mpmc{mask: n - 1, cells: make([]mpmcCell, n)}
	for i := range q.cells {
		q.cells[i].seq.Store(uint64(i))
	}
	return q
}

// tryEnqueue appends sub and reports whether there was room.
func (q *mpmc) tryEnqueue(sub Submission) bool {
	pos := q.enq.Load()
	for {
		cell := &q.cells[pos&q.mask]
		seq := cell.seq.Load()
		switch diff := int64(seq) - int64(pos); {
		case diff == 0:
			if q.enq.CompareAndSwap(pos, pos+1) {
				cell.sub = sub
				cell.seq.Store(pos + 1) // release: publishes sub
				return true
			}
			pos = q.enq.Load()
		case diff < 0:
			return false // full (consumer has not freed the slot)
		default:
			pos = q.enq.Load() // raced with another producer
		}
	}
}

// tryDequeue removes the oldest submission.
func (q *mpmc) tryDequeue() (Submission, bool) {
	pos := q.deq.Load()
	for {
		cell := &q.cells[pos&q.mask]
		seq := cell.seq.Load()
		switch diff := int64(seq) - int64(pos+1); {
		case diff == 0:
			if q.deq.CompareAndSwap(pos, pos+1) {
				sub := cell.sub
				cell.sub = Submission{} // drop references for GC
				cell.seq.Store(pos + q.mask + 1)
				return sub, true
			}
			pos = q.deq.Load()
		case diff < 0:
			return Submission{}, false // empty
		default:
			pos = q.deq.Load() // raced with another consumer
		}
	}
}

// IdleWaiter is the backoff an engine thread applies while polling
// without progress: pure yields while the idle period is shorter than
// spinFor — so under any sustained load the poll loops never sleep and
// measured latency stays free of wakeup delay — then brief sleeps so a
// truly idle session does not burn a core (at the price of up to one
// sleepFor of pickup delay on the first arrival after a long lull).
type IdleWaiter struct {
	// Spin overrides spinFor when positive.
	Spin time.Duration

	idleSince time.Time
}

const (
	spinFor  = 500 * time.Microsecond
	sleepFor = 50 * time.Microsecond
)

// Wait backs off once; call it per failed poll.
//
//orthrus:coldpath idle backoff: reached only when a poll made no progress, and the sleep is the whole point — an idle session must not pin a core
func (w *IdleWaiter) Wait() {
	if w.idleSince.IsZero() {
		w.idleSince = time.Now()
		runtime.Gosched()
		return
	}
	spin := spinFor
	if w.Spin > 0 {
		spin = w.Spin
	}
	if time.Since(w.idleSince) < spin {
		runtime.Gosched()
		return
	}
	time.Sleep(sleepFor)
}

// Reset marks progress, returning the waiter to the spinning regime.
func (w *IdleWaiter) Reset() {
	w.idleSince = time.Time{}
}

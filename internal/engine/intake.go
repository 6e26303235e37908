package engine

import (
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/txn"
	"repro/internal/wal"
)

// Intake is every engine's submission front: a bounded multi-producer
// multi-consumer ring of Submissions plus the lifecycle state a Session
// needs around it — the in-flight count Drain waits on, the closed latch,
// and the stop flag consumers retire on. ORTHRUS's execution threads and
// the baselines' workers both pull from one, so the engines differ only
// in what they do with a transaction once it is taken.
//
// The ring is Vyukov's array-based design: every slot carries a sequence
// number that tickets exactly one producer and one consumer per lap, so
// an enqueue or dequeue is one CAS plus one release store — no mutex, no
// goroutine parking, where a Go channel's lock and park/unpark cycle
// would dominate short transactions. The enqueue and dequeue cursors and
// the in-flight count are padded 128 bytes apart (two cache lines,
// clearing the adjacent-line prefetcher) so producers CASing enq never
// invalidate the line consumers CAS deq on.
type Intake struct {
	name     string   // engine name, for panics
	log      *wal.Log // log tail Drain and Close wait on; may be nil
	mask     uint64
	cells    []intakeCell
	closed   atomic.Bool // latched by Close: Submit refuses from here on
	stop     atomic.Bool // set by Close once drained: consumers retire
	_        [128]byte
	enq      atomic.Uint64
	_        [128]byte
	deq      atomic.Uint64
	_        [128]byte
	inflight atomic.Int64 // submitted and not yet Done
	_        [128]byte
}

type intakeCell struct {
	seq atomic.Uint64
	sub Submission
}

// NewIntake returns an intake for the named engine with capacity rounded
// up to a power of two. Capacity is clamped to at least 1: a negative
// value converted to uint64 would otherwise send the doubling loop past
// overflow (n becomes 0 and never terminates). log, when enabled, is the
// engine's commit log: Drain and Close wait for its tail, so a drained
// session's acknowledged work is durable.
func NewIntake(name string, capacity int, log *wal.Log) *Intake {
	if capacity < 1 {
		capacity = 1
	}
	n := uint64(1)
	for n < uint64(capacity) {
		n <<= 1
	}
	in := &Intake{name: name, log: log, mask: n - 1, cells: make([]intakeCell, n)}
	for i := range in.cells {
		in.cells[i].seq.Store(uint64(i))
	}
	return in
}

// Submit implements Session.Submit. It backs off through IdleWaiter while
// the ring is full — backpressure from saturated consumers. Submitting a
// nil transaction, or to a closed intake, panics: a consumer would either
// drop the first or never take the second, and Drain would wait forever.
func (in *Intake) Submit(t *txn.Txn, done func(committed bool)) {
	if t == nil {
		panic("engine: " + in.name + ": Submit of a nil transaction")
	}
	if in.closed.Load() {
		panic("engine: " + in.name + ": Submit on a closed session")
	}
	in.inflight.Add(1)
	sub := Submission{Txn: t, Done: done}
	var idle IdleWaiter
	for !in.tryEnqueue(sub) {
		if in.stop.Load() {
			panic("engine: " + in.name + ": Submit on a closed session")
		}
		idle.Wait()
	}
}

// Done retires one submission taken by Next, once it has completed.
func (in *Intake) Done() { in.inflight.Add(-1) }

// Stopped reports whether Close has drained the intake: an empty Next
// after Stopped is final, and a consumer may retire.
func (in *Intake) Stopped() bool { return in.stop.Load() }

// Drain implements Session.Drain: every submission completed and the log
// tail durable. A write completes only once its record is durable, so the
// tail wait is a backstop. It polls, which is plenty for drain/shutdown
// precision. A negative count means Done without a matching Submit; Drain
// panics rather than wait forever.
func (in *Intake) Drain() {
	for n := in.inflight.Load(); n != 0; n = in.inflight.Load() {
		if n < 0 {
			panic("engine: " + in.name + ": in-flight count went negative (Done without a matching Submit)")
		}
		time.Sleep(50 * time.Microsecond)
	}
	in.log.Drain()
}

// Close latches the intake, drains it, and then stops its consumers. A
// second Close panics: the session around it would release the engine's
// in-use guard out from under a newer session.
func (in *Intake) Close() {
	if !in.closed.CompareAndSwap(false, true) {
		panic("engine: " + in.name + ": Close on a closed session")
	}
	in.Drain()
	in.stop.Store(true)
}

// tryEnqueue appends sub and reports whether there was room.
func (in *Intake) tryEnqueue(sub Submission) bool {
	pos := in.enq.Load()
	for {
		cell := &in.cells[pos&in.mask]
		seq := cell.seq.Load()
		switch diff := int64(seq) - int64(pos); {
		case diff == 0:
			if in.enq.CompareAndSwap(pos, pos+1) {
				cell.sub = sub
				cell.seq.Store(pos + 1) // release: publishes sub
				return true
			}
			pos = in.enq.Load()
		case diff < 0:
			return false // full (consumer has not freed the slot)
		default:
			pos = in.enq.Load() // raced with another producer
		}
	}
}

// Next takes the oldest submission, if any. The consumer owns it until it
// calls Done.
func (in *Intake) Next() (Submission, bool) {
	pos := in.deq.Load()
	for {
		cell := &in.cells[pos&in.mask]
		seq := cell.seq.Load()
		switch diff := int64(seq) - int64(pos+1); {
		case diff == 0:
			if in.deq.CompareAndSwap(pos, pos+1) {
				sub := cell.sub
				cell.sub = Submission{} // drop references for GC
				cell.seq.Store(pos + in.mask + 1)
				return sub, true
			}
			pos = in.deq.Load()
		case diff < 0:
			return Submission{}, false // empty
		default:
			pos = in.deq.Load() // raced with another consumer
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
		w.idleSince = metrics.Now()
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

// Package engine defines the interfaces both engines implement (ORTHRUS,
// and internal/engine/locking for 2PL with each deadlock handler,
// Deadlock-free locking and Partitioned-store) plus machinery they share:
// the Runtime/Session service lifecycle and its generic load drivers, undo
// logging for in-place writes, and per-thread transaction identities.
//
// Engines expose two surfaces. Runtime/Session (runtime.go) is the
// long-lived serving lifecycle: Start the engine's threads once, Submit
// transactions from any caller, observe per-transaction completion, Drain
// and Close. Engine is the legacy one-shot benchmarking surface; its
// Run(src, duration) is implemented exactly once, by the shared
// closed-loop driver RunClosedLoop over Runtime. RunOpenLoop is the
// second driver: Poisson arrivals at a fixed rate, measuring commit
// latency under offered — not self-regulated — load.
//
// Every engine runs the same workload Sources against the same storage.DB,
// so measured differences come from concurrency control alone — the
// paper's methodology (§4: all systems are implemented "within the same
// ORTHRUS transaction management codebase").
package engine

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/workload"
)

// Engine runs a workload for a fixed duration with its configured thread
// counts and reports throughput and time-breakdown metrics.
type Engine interface {
	// Name identifies the system in harness output.
	Name() string
	// Run drives src closed-loop for roughly the given duration.
	Run(src workload.Source, duration time.Duration) metrics.Result
}

// System is the full surface every engine in the repository implements:
// the one-shot benchmark contract plus the service lifecycle.
type System interface {
	Engine
	Runtime
}

// RunWorkers starts n workers, lets them run for duration, then signals
// stop and waits for them to drain. It returns the measured elapsed time
// (from start until the last worker exits, which includes drain time for
// in-flight transactions). The closed-loop driver uses it to run its
// submitter goroutines.
func RunWorkers(n int, duration time.Duration, worker func(thread int, stop *atomic.Bool)) time.Duration {
	var stop atomic.Bool
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			worker(i, &stop)
		}(i)
	}
	timer := time.AfterFunc(duration, func() { stop.Store(true) })
	wg.Wait()
	timer.Stop()
	return time.Since(start)
}

// IDSource hands out transaction ids unique across threads without shared
// state: the thread id lives in the top 16 bits.
type IDSource struct {
	next uint64
}

// NewIDSource returns an id source for the given thread.
func NewIDSource(thread int) *IDSource {
	return &IDSource{next: uint64(thread) << 48}
}

// Next returns a fresh transaction id.
func (s *IDSource) Next() uint64 {
	s.next++
	return s.next
}

// tsEpoch anchors wait-die timestamps so the nanosecond count fits in 54
// bits (decades of uptime); shifting a raw UnixNano by 10 would overflow
// uint64 and scramble the age order wait-die depends on.
var tsEpoch = time.Now()

// Timestamp returns a wait-die timestamp: monotonic nanoseconds since
// process start with the thread id in the low bits — the software
// analogue of the paper's core-local timestamp counters (cheap,
// contention-free, totally ordered, roughly arrival-ordered across
// threads).
func Timestamp(thread int) uint64 {
	return uint64(time.Since(tsEpoch))<<10 | uint64(thread&0x3FF)
}

// UndoLog captures before-images of records mutated in place so an aborted
// transaction's writes can be rolled back. Its users record only what a
// rollback can read: 2PL always (wait-die aborts), PlannedCtx only for
// re-plannable attempts. One log lives per worker
// thread and is reused across transactions; image bytes come from an
// arena whose write offset rewinds on Reset — after commit or rollback no
// image is referenced, so the same bytes serve every transaction and
// steady state performs no allocation (the old consume-only arena leaked
// its capacity and re-allocated every 64KB of images).
type UndoLog struct {
	recs [][]byte // the live record slices
	imgs [][]byte // before-images (arena-backed)
	buf  []byte   // image arena; off..len(buf) is free
	off  int
}

// Record saves rec's current contents. Call before the first mutation of
// each record.
func (u *UndoLog) Record(rec []byte) {
	n := len(rec)
	if len(u.buf)-u.off < n {
		sz := 1 << 16
		if n > sz {
			sz = n
		}
		// A transaction whose images outgrow one arena keeps the full old
		// buffer alive through imgs until Reset; that transient is the
		// price of rewinding instead of consuming.
		//orthrus:allow(noalloc) arena growth: first transaction (or an outsized one) only; the buffer is reused afterwards
		u.buf = make([]byte, sz)
		u.off = 0
	}
	img := u.buf[u.off : u.off+n : u.off+n]
	u.off += n
	copy(img, rec)
	u.recs = append(u.recs, rec)
	u.imgs = append(u.imgs, img)
}

// Rollback restores all recorded before-images in reverse order and
// resets the log. Eight-byte-aligned records are restored with word-wise
// atomic stores so the restore cannot race OLLP reconnaissance readers,
// which read individual fields atomically without locks (see
// storage.AtomicGetU64).
func (u *UndoLog) Rollback() {
	for i := len(u.recs) - 1; i >= 0; i-- {
		rec, img := u.recs[i], u.imgs[i]
		if len(rec)%8 == 0 {
			for off := 0; off < len(rec); off += 8 {
				storage.AtomicPutU64(rec, off, storage.GetU64(img, off))
			}
		} else {
			copy(rec, img)
		}
	}
	u.Reset()
}

// Reset forgets recorded images (after commit) and rewinds the arena.
func (u *UndoLog) Reset() {
	u.recs = u.recs[:0]
	u.imgs = u.imgs[:0]
	u.off = 0
}

// Len returns the number of recorded images.
func (u *UndoLog) Len() int { return len(u.recs) }

// Insert applies an insert through to storage. Inserts are not undone on
// abort: in this reproduction (as in the paper's prototype) aborted
// transactions are always retried until commit, and the TPC-C insert keys
// are derived from counters read under locks, so a retried transaction
// simply overwrites its earlier insert.
func Insert(db *storage.DB, table int, key uint64, value []byte) error {
	return db.Table(table).Insert(key, value)
}

// MaterializeRanges expands a transaction's declared ranges into the
// stripe (gap) lock Ops that protect them, appending to t.Ops. Planned
// engines call it before SortOps on every (re)plan: scan ranges add
// stripe locks in the range's mode (Read blocks inserts into the scanned
// interval), insert ranges add Write stripe locks (fencing the keys the
// plan expects to create against concurrent scans). Only scan-protected
// tables take stripe locks — fixed tables cannot grow phantoms. The
// append may duplicate stripes across overlapping ranges or repeated
// calls; SortOps dedupes, widening Read to Write where both appear.
func MaterializeRanges(db *storage.DB, t *txn.Txn) {
	for _, r := range t.Ranges {
		if r.Empty() || !db.Table(r.Table).ScanProtected() {
			continue
		}
		first, last := txn.StripeSpan(r.Lo, r.Hi)
		for s := first; s <= last; s++ {
			t.Ops = append(t.Ops, txn.Op{Table: r.Table, Key: s, Mode: r.Mode})
		}
	}
}

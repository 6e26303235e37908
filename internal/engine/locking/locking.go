// Package locking implements the paper's three conventional baselines
// (§4) as one engine over the shared lock.Table, so that — as in the
// paper, which builds every baseline "within the same ORTHRUS transaction
// management codebase" — they differ only on the axes the evaluation
// varies: when a transaction's footprint is locked, at what grain, and who
// resolves conflicts. Two Config fields pick the footprint:
//
//   - Handler set — conventional two-phase locking (§2): each record is
//     locked the moment it is first touched ("dynamic lock acquisition"),
//     and the handler (wait-die, wait-for graph, Dreadlocks) resolves
//     conflicts. A victim rolls back its in-place writes and retries with
//     the same wait-die timestamp, so old transactions eventually win.
//   - neither set — Deadlock-free locking, the strongest conventional
//     baseline: the declared read/write set is locked up front in global
//     key order, so deadlock is impossible and conflicts simply queue
//     (deadlock.Block). An access outside the declared set (possible only
//     for OLLP-planned transactions such as TPC-C Payment-by-last-name) is
//     an estimate miss: the attempt rolls back, re-plans via the
//     transaction's Replan hook and retries (§3.2).
//   - Partitions set — Partitioned-store, the H-Store/VoltDB-style system
//     of Figures 6 and 7 (modeled on Silo's baseline, §4.3): the spinlock
//     of every partition the transaction touches, taken in partition
//     order, then serial execution with no record locks, no undo and no
//     abort path. Single-partition transactions pay one uncontended
//     spinlock; any multi-partition transaction serializes whole
//     partitions, which is the Figure 6 collapse. The paper's baseline also partitions its
//     indexes for cache locality, a benefit invisible at this
//     reproduction's scale (README.md "Scale and fidelity").
//
// Every footprint writes records in place, seals its redo record and
// installs versioned after-images before releasing a lock, and serves
// ReadOnly transactions on versioned tables from an MVCC snapshot with no
// locks at all.
package locking

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/deadlock"
	"repro/internal/engine"
	"repro/internal/lock"
	"repro/internal/metrics"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/wal"
)

// buckets is the lock-table bucket count.
const buckets = 1 << 16

// Config configures the engine; Handler and Partitions pick the footprint
// (see the package doc) and are mutually exclusive.
type Config struct {
	DB *storage.DB
	// Threads is the worker count. With Partitions set, <=0 means one
	// worker per partition.
	Threads int
	// Handler selects two-phase locking with this deadlock policy.
	Handler lock.Handler
	// Partitions selects the Partitioned-store footprint over this many
	// partitions (paper: one per worker).
	Partitions int
	// Partition maps records to partitions; defaults to
	// txn.HashPartitioner(Partitions).
	Partition txn.PartitionFunc
	// Wal, when enabled, makes commit acknowledgment durable: workers
	// append a redo record at pre-commit, under the transaction's locks,
	// and the completion fires from the group-commit flusher. Nil or Off
	// is the paper's instant acknowledgment.
	Wal *wal.Log
	// Snapshot tunes the MVCC snapshot-read path, active when DB has
	// versioned tables: ReadOnly transactions then take no locks and read
	// at the commit frontier.
	Snapshot engine.SnapshotConfig
	// Checkpoint, when its Store is set, runs a background checkpointer
	// that compacts the Wal into images (requires an enabled Wal); see
	// engine.CheckpointConfig.
	Checkpoint engine.CheckpointConfig
}

// footprint is when and at what grain a transaction's locks are taken.
type footprint int

const (
	firstTouch        footprint = iota // record locks as each record is touched (Handler set)
	orderedRecords                     // declared record locks up front, in key order
	orderedPartitions                  // partition locks up front, in partition order
)

// Validate panics on nonsensical or contradictory knobs. Zero values that
// mean "use the default" pass; New fills them afterwards.
func (c Config) Validate() {
	if c.Partitions < 0 {
		panic(fmt.Sprintf("locking: Partitions must not be negative (got %d)", c.Partitions))
	}
	if c.Threads <= 0 && c.Partitions == 0 {
		panic("locking: Threads must be positive")
	}
	if c.Handler != nil && c.Partitions > 0 {
		panic("locking: Handler and Partitions select different footprints; set one")
	}
	if c.Partition != nil && c.Partitions == 0 {
		panic("locking: Partition needs Partitions")
	}
	c.Snapshot.Validate()
	c.Checkpoint.Validate()
}

// Engine is the locking engine.
type Engine struct {
	cfg   Config
	fp    footprint
	table *lock.Table // record locks; nil under a partition footprint
	spins []spinlock  // partition locks; nil under a record footprint
	inUse engine.InUseGuard
	clock engine.CommitClock // stamps versioned commits when Wal is off
}

// spinlock is a partition's test-and-set lock, padded to its own cache
// line — the one mechanism a partition footprint does not share with the
// record footprints. An uncontended acquisition is a single atomic (the
// paper's "minimal overhead because the lock is cached by the
// corresponding worker"), and a waiter yields instead of parking. An X
// lock on a partition key in the lock table under deadlock.Block, tried in
// its place, cost Partitioned-store 15 % of its Figure 6 and 24 % of its
// Figure 7 throughput (80 logical threads on 2 vCPUs).
type spinlock struct {
	v atomic.Int32
	_ [60]byte
}

// lock acquires l and returns how long it waited.
func (l *spinlock) lock() time.Duration {
	if l.v.CompareAndSwap(0, 1) {
		return 0
	}
	start := metrics.Now()
	for {
		runtime.Gosched()
		if l.v.CompareAndSwap(0, 1) {
			return time.Since(start)
		}
	}
}

func (l *spinlock) unlock() { l.v.Store(0) }

// New validates the configuration and builds the engine and its locks.
// Deadlock-free locking runs the lock table under deadlock.Block: ordered
// acquisition cannot deadlock, so a conflict simply queues.
func New(cfg Config) *Engine {
	cfg.Validate()
	e := &Engine{cfg: cfg}
	switch {
	case cfg.Handler != nil:
		e.fp, e.table = firstTouch, lock.NewTable(buckets, cfg.Handler)
	case cfg.Partitions > 0:
		e.fp, e.spins = orderedPartitions, make([]spinlock, cfg.Partitions)
		if e.cfg.Threads <= 0 {
			e.cfg.Threads = cfg.Partitions
		}
		if cfg.Partition == nil {
			e.cfg.Partition = txn.HashPartitioner(cfg.Partitions)
		}
	default:
		e.fp, e.table = orderedRecords, lock.NewTable(buckets, deadlock.Block{})
	}
	return e
}

// Name implements engine.Engine.
func (e *Engine) Name() string {
	switch e.fp {
	case firstTouch:
		return fmt.Sprintf("%s(%dt)", e.cfg.Handler.Name(), e.cfg.Threads)
	case orderedPartitions:
		return fmt.Sprintf("partstore(%dp/%dt)", e.cfg.Partitions, e.cfg.Threads)
	}
	return fmt.Sprintf("dlfree(%dt)", e.cfg.Threads)
}

// Start implements engine.Engine.
func (e *Engine) Start() engine.Session {
	snaps := engine.NewSnapshots(e.cfg.DB, e.cfg.Wal, &e.clock, e.cfg.Threads, e.cfg.Snapshot)
	ses := engine.NewWorkerSession(e.Name(), e.cfg.Threads, e.Clients(), &e.inUse, e.cfg.Wal,
		func(thread int, stats *metrics.ThreadStats) func(*txn.Txn, *engine.Completion) {
			w := &worker{eng: e, thread: thread, snaps: snaps, ids: engine.NewIDSource(thread),
				PlannedCtx: engine.PlannedCtx{DB: e.cfg.DB, Stats: stats, VSet: snaps.VersionSet()}}
			w.ctx = w
			if e.fp == orderedRecords {
				w.ctx = &w.PlannedCtx
			}
			if e.cfg.Wal.Enabled() {
				w.Wal = e.cfg.Wal.NewAppender(stats)
			}
			return w.execute
		})
	return engine.WithCheckpointer(ses, e.cfg.DB, e.cfg.Wal, e.cfg.Checkpoint)
}

// Clients implements engine.Engine: two submitters per worker keep the
// queue stocked while each worker runs a transaction.
func (e *Engine) Clients() int { return 2 * e.cfg.Threads }

// worker is one worker thread's reusable execution state.
type worker struct {
	eng    *Engine
	thread int
	snaps  *engine.Snapshots
	sctx   engine.SnapshotCtx
	ids    *engine.IDSource
	// PlannedCtx holds the current attempt: its transaction, undo images,
	// redo capture and noted version installs. The ordered-records
	// footprint runs logic against it; the other two against the
	// worker's own in-place accessors (ctx.go), which share its state.
	engine.PlannedCtx
	ctx    txn.Ctx
	fl     lock.Freelist
	held   []*lock.Request // granted record locks of the current attempt, in acquisition order
	parts  []int           // the partition footprint, ascending (a worker-owned copy)
	waited time.Duration   // lock-wait time this attempt
	locked time.Duration   // lock-manager work time this attempt
}

// execute runs one transaction to commit, retrying every abort, and
// discharges comp exactly once — inline at pre-commit without a WAL, from
// the group-commit flusher with one.
func (w *worker) execute(t *txn.Txn, comp *engine.Completion) {
	fp := w.eng.fp
	stats := comp.Stats()
	t.ID = w.ids.Next()
	if t.ReadOnly && w.snaps != nil {
		// Snapshot fast path: no footprint, no wait-die timestamp. A
		// worker takes one submission at a time, so its group is one:
		// the copy in it is what Exec discharges.
		group := [1]engine.Completion{*comp}
		w.snaps.Exec(w.thread, &w.sctx, group[:])
		return
	}
	if fp == firstTouch {
		// Fixed across retries, so old transactions eventually win.
		t.TS = engine.Timestamp(w.thread)
	}
	for {
		// Chained timestamps: each phase boundary is read once (clock
		// reads are a measurable share of a one-microsecond transaction).
		w.Begin(t)
		w.waited, w.locked = 0, 0
		start := w.lockFootprint(t)
		if fp != firstTouch {
			// An ordered footprint is held in full before the logic runs,
			// so its records can be fetched ahead (engine.PlannedCtx.Fetch).
			// Two-phase locking learns its footprint only as the logic
			// touches it — the paper's point — so it has nothing to fetch.
			w.Fetch()
		}
		err := t.Logic(w.ctx)
		if err == nil {
			// Seal the redo record — and install versioned after-images —
			// before releasing a single lock: the LSN assigned inside
			// Wal.Commit must order before any dependent transaction's,
			// and dependents can only run after the release below.
			w.Commit()
			var ack func()
			if w.Wal != nil {
				// Ownership transfer: once the flusher holds the ack it may
				// fire — and recycle t — any time; the release below
				// iterates worker-owned w.held and w.parts, never t's
				// slices.
				ack = comp.Defer()
			}
			engine.CommitVersions(w.Wal, &w.VSet, stats, ack)
		} else {
			w.Abort()
		}
		end := w.release()
		stats.AddWait(w.waited)
		stats.AddLock(w.locked)
		stats.AddExec(end.Sub(start) - w.waited - w.locked)
		if err == nil {
			stats.Committed++
			if w.Wal == nil {
				comp.Finish()
			}
			return
		}
		stats.Aborted++
		switch {
		case fp == firstTouch && errors.Is(err, txn.ErrAborted):
			// Yield before retrying so the conflicting holder can finish;
			// retry storms otherwise starve holders when logical threads
			// outnumber hardware threads.
			runtime.Gosched()
		case fp == orderedRecords && errors.Is(err, txn.ErrEstimateMiss):
			// OLLP estimate miss: re-plan and retry (paper §3.2).
			stats.Misses++
			if t.Replan == nil {
				panic("locking: estimate miss without Replan hook")
			}
			t.Replan(t)
		default:
			panic(fmt.Sprintf("locking: transaction logic failed: %v", err))
		}
	}
}

// lockFootprint takes an ordered footprint's locks, in order, before the
// logic runs; first touch takes none here. It returns the clock reading
// the attempt's timing starts from: after the footprint is put in order
// (that planning is booked nowhere), before the first lock.
func (w *worker) lockFootprint(t *txn.Txn) (start time.Time) {
	switch w.eng.fp {
	case orderedRecords:
		// Declared ranges become stripe (gap) locks, acquired in the same
		// global (table, key) order as every other lock: stripe keys carry
		// bit 63, so within a table they sort after all record keys, and
		// the total order — hence the deadlock-freedom argument — is
		// unchanged. A concurrent insert into a scanned range needs the
		// same stripe in Write mode, so phantoms are excluded for exactly
		// the duration the scan's locks are held.
		engine.MaterializeRanges(w.DB, t)
		t.SortOps()
		start = metrics.Now()
		for _, op := range t.Ops {
			waited, err := w.eng.table.Acquire(w.request(), op.Table, op.Key, op.Mode)
			if err != nil {
				panic(fmt.Sprintf("locking: deadlock.Block aborted an ordered acquisition: %v", err))
			}
			w.waited += waited
		}
	case orderedPartitions:
		// The partition footprint: pre-declared by the generator or
		// derived from the declared access set. Generator-provided sets
		// carry no ordering guarantee, so sort a worker-owned copy
		// unconditionally; Scan checks ranges against it.
		w.parts = append(w.parts[:0], t.PartitionSet(w.eng.cfg.Partition)...)
		sort.Ints(w.parts)
		start = metrics.Now()
		for _, p := range w.parts {
			w.waited += w.eng.spins[p].lock()
		}
		w.Stats.PartLocks += uint64(len(w.parts))
	default:
		return metrics.Now()
	}
	w.locked = time.Since(start) - w.waited
	return start
}

// request returns a lock request for the current attempt, already on the
// held list.
func (w *worker) request() *lock.Request {
	r := w.fl.Get(w.T.ID, w.T.TS, w.thread)
	w.held = append(w.held, r)
	return r
}

// release drops every held lock in reverse acquisition order, books the
// time as lock-manager work, and returns the clock reading it ended at.
func (w *worker) release() time.Time {
	start := metrics.Now()
	for i := len(w.held) - 1; i >= 0; i-- {
		w.eng.table.Release(w.held[i])
		w.fl.Put(w.held[i])
	}
	w.held = w.held[:0]
	for i := len(w.parts) - 1; i >= 0; i-- {
		w.eng.spins[w.parts[i]].unlock()
	}
	w.parts = w.parts[:0]
	end := metrics.Now()
	w.locked += end.Sub(start)
	return end
}

var _ engine.Engine = (*Engine)(nil)

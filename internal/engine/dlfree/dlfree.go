// Package dlfree implements "Deadlock free locking", the paper's strongest
// conventional baseline (§4): a shared-everything 2PL system that analyzes
// each transaction's read- and write-sets in advance and acquires all
// locks in lexicographical order before execution. Ordered acquisition
// makes deadlock impossible, so the engine carries no deadlock-handling
// machinery at all — the Figure 4 comparison against the dynamic handlers
// isolates exactly that cost.
//
// If a transaction's declared access set turns out to be wrong (possible
// only for OLLP-planned transactions such as TPC-C Payment-by-last-name),
// the access returns txn.ErrEstimateMiss, the engine rolls back, re-plans
// via the transaction's Replan hook and retries — the OLLP protocol of
// §3.2.
package dlfree

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/deadlock"
	"repro/internal/engine"
	"repro/internal/lock"
	"repro/internal/metrics"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/wal"
	"repro/internal/workload"
)

// Config configures the engine.
type Config struct {
	DB      *storage.DB
	Threads int
	// Buckets overrides the lock-table bucket count (default 1<<16).
	Buckets int
	// Wal, when enabled, makes commit acknowledgment durable (redo append
	// at pre-commit, acknowledgment from the group-commit flusher).
	Wal *wal.Log
	// Snapshot tunes the MVCC snapshot-read path, active when DB has
	// versioned tables: ReadOnly transactions then skip declared-set
	// lock acquisition entirely and read at the commit frontier.
	Snapshot engine.SnapshotConfig
	// Checkpoint, when its Store is set, runs a background fuzzy
	// checkpointer over the session (requires an enabled Wal); see
	// engine.CheckpointConfig.
	Checkpoint engine.CheckpointConfig
}

// Engine is the deadlock-free ordered-locking engine.
type Engine struct {
	cfg   Config
	table *lock.Table
	inUse engine.InUseGuard
	clock engine.CommitClock // stamps versioned commits when Wal is off
}

// Validate panics on nonsensical knobs. Zero values that mean "use the
// default" pass; New fills them afterwards.
func (c Config) Validate() {
	if c.Threads <= 0 {
		panic("dlfree: Threads must be positive")
	}
	if c.Buckets < 0 {
		panic(fmt.Sprintf("dlfree: Buckets must not be negative (got %d; 0 means default)", c.Buckets))
	}
	c.Snapshot.Validate()
	c.Checkpoint.Validate()
}

// New builds the engine.
func New(cfg Config) *Engine {
	cfg.Validate()
	buckets := cfg.Buckets
	if buckets == 0 {
		buckets = 1 << 16
	}
	return &Engine{cfg: cfg, table: lock.NewTable(buckets, deadlock.Block{})}
}

// Name implements engine.Engine.
func (e *Engine) Name() string {
	return fmt.Sprintf("dlfree(%dt)", e.cfg.Threads)
}

// Run implements engine.Engine via the shared closed-loop driver.
func (e *Engine) Run(src workload.Source, duration time.Duration) metrics.Result {
	return engine.RunClosedLoop(e, src, duration)
}

// Start implements engine.Runtime.
func (e *Engine) Start() engine.Session {
	snaps := engine.NewSnapshots(e.cfg.DB, e.cfg.Wal, &e.clock, e.cfg.Threads, e.cfg.Snapshot)
	ses := engine.NewWorkerSession(e.Name(), e.cfg.Threads, e.Clients(), &e.inUse, e.cfg.Wal,
		func(thread int, stats *metrics.ThreadStats) func(*txn.Txn, *engine.Completion) {
			w := &dlfreeWorker{
				eng:    e,
				thread: thread,
				snaps:  snaps,
				ids:    engine.NewIDSource(thread),
				ctx:    engine.PlannedCtx{DB: e.cfg.DB, Stats: stats, VSet: snaps.VersionSet()},
				held:   make([]*lock.Request, 0, 32),
			}
			if e.cfg.Wal.Enabled() {
				w.ctx.Wal = e.cfg.Wal.NewAppender(stats)
			}
			return w.execute
		})
	return engine.WithCheckpointer(ses, e.cfg.DB, e.cfg.Wal, e.cfg.Checkpoint)
}

// Clients implements engine.Runtime.
func (e *Engine) Clients() int { return 2 * e.cfg.Threads }

// dlfreeWorker is one worker's reusable execution state.
type dlfreeWorker struct {
	eng    *Engine
	thread int
	snaps  *engine.Snapshots
	sctx   engine.SnapshotCtx
	ids    *engine.IDSource
	ctx    engine.PlannedCtx
	fl     lock.Freelist
	held   []*lock.Request
}

// execute runs one transaction to commit, re-planning on OLLP misses,
// and discharges comp exactly once — inline, or from the WAL flusher
// when durability is on.
func (w *dlfreeWorker) execute(t *txn.Txn, comp *engine.Completion) {
	e := w.eng
	stats := comp.Stats()
	t.ID = w.ids.Next()
	if t.ReadOnly && w.snaps != nil {
		// Snapshot fast path: no declared-set acquisition at all — the
		// snapshot is immutable, so ordered locking has nothing to order.
		start := time.Now()
		w.snaps.Exec(w.thread, t, &w.sctx, stats)
		stats.AddExec(time.Since(start))
		comp.Finish(true)
		return
	}
	for {
		// Declared ranges become stripe (gap) locks, acquired in the same
		// global (table, key) order as every other lock: stripe keys carry
		// bit 63, so within a table they sort after all record keys, and
		// the total order — hence the deadlock-freedom argument — is
		// unchanged. A concurrent insert into a scanned range needs the
		// same stripe in Write mode, so phantoms are excluded for exactly
		// the duration the scan's locks are held.
		engine.MaterializeRanges(e.cfg.DB, t)
		t.SortOps()

		// Phase 1: acquire every declared lock in global key order.
		// Chained timestamps: each phase boundary is read once.
		t0 := time.Now()
		var waited time.Duration
		held := w.held[:0]
		for _, op := range t.Ops {
			r := w.fl.Get(t.ID, 0, w.thread)
			wt, err := e.table.Acquire(r, op.Table, op.Key, op.Mode)
			waited += wt
			if err != nil {
				// Block handler never aborts.
				panic(fmt.Sprintf("dlfree: unexpected acquire error: %v", err))
			}
			held = append(held, r)
		}
		t1 := time.Now()

		// Phase 2: run logic with locking settled.
		w.ctx.Begin(t)
		err := t.Logic(&w.ctx)
		t2 := time.Now()

		// Phase 3: seal the redo record (before any release — the LSN
		// must order before every dependent transaction's), then release
		// in reverse order.
		if err == nil {
			w.ctx.Commit()
			var ack func()
			if w.ctx.Wal != nil {
				// Ownership transfer: the flusher may fire the ack — and
				// recycle t — before the release loop below finishes; the
				// loop iterates worker-owned held, never t.Ops.
				ack = comp.Defer()
			}
			engine.CommitVersions(w.ctx.Wal, &w.ctx.VSet, stats, ack)
		} else {
			w.ctx.Abort()
		}
		for i := len(held) - 1; i >= 0; i-- {
			e.table.Release(held[i])
			w.fl.Put(held[i])
		}
		w.held = held[:0]
		t3 := time.Now()

		stats.AddWait(waited)
		stats.AddLock(t1.Sub(t0) - waited + t3.Sub(t2))
		stats.AddExec(t2.Sub(t1))

		if err == nil {
			stats.Committed++
			if w.ctx.Wal == nil {
				comp.Finish(true)
			}
			return
		}
		if !errors.Is(err, txn.ErrEstimateMiss) {
			panic(fmt.Sprintf("dlfree: transaction logic failed: %v", err))
		}
		// OLLP estimate miss: re-plan and retry (paper §3.2).
		stats.Aborted++
		stats.Misses++
		if t.Replan == nil {
			panic("dlfree: estimate miss without Replan hook")
		}
		t.Replan(t)
	}
}

var _ engine.System = (*Engine)(nil)

// Package partstore implements the "Partitioned-store" baseline of
// Figures 6 and 7: a single-node H-Store/VoltDB-style system, modeled on
// the corresponding baseline in Silo [46] (§4.3):
//
//   - data is partitioned across workers by a partition function;
//   - concurrency control is a coarse partition-level spinlock — there is
//     no record locking at all;
//   - a worker executes a transaction by acquiring the spinlock of every
//     partition the transaction touches (in partition-id order, which
//     makes deadlock impossible), running the logic serially, and
//     releasing.
//
// Single-partition transactions therefore pay one uncontended spinlock
// acquisition; any multi-partition transaction serializes entire
// partitions against each other, which is why the paper's Figure 6 shows
// Partitioned-store collapsing as soon as transactions span two
// partitions.
//
// The paper's baseline also physically partitions index structures to gain
// cache locality. That benefit is invisible at this reproduction's scale
// (see README.md "Scale and fidelity"); the concurrency behaviour — which drives the curve
// shapes — is reproduced exactly.
package partstore

import (
	"fmt"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/wal"
	"repro/internal/workload"
)

// Config configures a partitioned store.
type Config struct {
	DB *storage.DB
	// Partitions is the physical partition count (paper: one per worker).
	Partitions int
	// Threads is the worker count; defaults to Partitions.
	Threads int
	// Partition maps records to partitions; defaults to
	// txn.HashPartitioner(Partitions).
	Partition txn.PartitionFunc
	// Wal, when enabled, makes commit acknowledgment durable (redo append
	// under the partition locks, acknowledgment from the flusher).
	Wal *wal.Log
	// Snapshot tunes the MVCC snapshot-read path, active when DB has
	// versioned tables: ReadOnly transactions then acquire no partition
	// locks at all — the one access class that escapes the H-Store
	// multi-partition serialization collapse.
	Snapshot engine.SnapshotConfig
	// Checkpoint, when its Store is set, runs a background fuzzy
	// checkpointer over the session (requires an enabled Wal); see
	// engine.CheckpointConfig.
	Checkpoint engine.CheckpointConfig
}

// spinlock is a partition's test-and-set lock, padded to its own cache
// line. Uncontended acquisition is a single atomic — the paper's "minimal
// overhead because the lock is cached by the corresponding worker".
type spinlock struct {
	v atomic.Int32
	_ [60]byte
}

func (l *spinlock) lock() time.Duration {
	if l.v.CompareAndSwap(0, 1) {
		return 0
	}
	start := time.Now()
	for {
		runtime.Gosched()
		if l.v.CompareAndSwap(0, 1) {
			return time.Since(start)
		}
	}
}

func (l *spinlock) unlock() { l.v.Store(0) }

// Engine is the partitioned-store engine.
type Engine struct {
	cfg   Config
	locks []spinlock
	inUse engine.InUseGuard
	clock engine.CommitClock // stamps versioned commits when Wal is off
}

// Validate panics on nonsensical knobs. Threads <= 0 passes — it means
// "one worker per partition" and New fills it.
func (c Config) Validate() {
	if c.Partitions <= 0 {
		panic("partstore: Partitions must be positive")
	}
	_ = c.Threads // any value is legal: <=0 defaults to Partitions
	c.Snapshot.Validate()
	c.Checkpoint.Validate()
}

// New validates the configuration and returns an engine.
func New(cfg Config) *Engine {
	cfg.Validate()
	if cfg.Threads <= 0 {
		cfg.Threads = cfg.Partitions
	}
	if cfg.Partition == nil {
		cfg.Partition = txn.HashPartitioner(cfg.Partitions)
	}
	return &Engine{cfg: cfg, locks: make([]spinlock, cfg.Partitions)}
}

// Name implements engine.Engine.
func (e *Engine) Name() string {
	return fmt.Sprintf("partstore(%dp/%dt)", e.cfg.Partitions, e.cfg.Threads)
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
			ids := engine.NewIDSource(thread)
			ctx := &execCtx{db: e.cfg.DB, stats: stats, pf: e.cfg.Partition, vset: snaps.VersionSet()}
			if e.cfg.Wal.Enabled() {
				ctx.wal = e.cfg.Wal.NewAppender(stats)
			}
			var sctx engine.SnapshotCtx
			return func(t *txn.Txn, comp *engine.Completion) {
				t.ID = ids.Next()
				if t.ReadOnly && snaps != nil {
					// Snapshot fast path: no partition footprint, no
					// spinlocks — even a whole-table analytics scan runs
					// without serializing a single partition.
					start := time.Now()
					snaps.Exec(thread, t, &sctx, stats)
					stats.AddExec(time.Since(start))
					comp.Finish(true)
					return
				}
				e.execute(ctx, t, stats, comp)
			}
		})
	return engine.WithCheckpointer(ses, e.cfg.DB, e.cfg.Wal, e.cfg.Checkpoint)
}

// Clients implements engine.Runtime.
func (e *Engine) Clients() int { return 2 * e.cfg.Threads }

// execute runs one transaction under its partition locks, discharging
// comp exactly once. There is no abort path: partition locks serialize
// every access up front.
func (e *Engine) execute(ctx *execCtx, t *txn.Txn, stats *metrics.ThreadStats, comp *engine.Completion) {
	// The partition footprint: pre-declared by the generator or
	// derived from the declared access set. Ascending order keeps
	// partition-lock acquisition deadlock-free; generator-provided
	// sets carry no ordering guarantee, so sort unconditionally.
	// Copy the footprint out of the transaction: after comp.Defer() below
	// hands ownership to the WAL flusher, the ack may fire — and t be
	// recycled by its producer — while the unlock loop is still running, so
	// the loop must iterate worker-owned memory, never t.Partitions.
	//orthrus:recycle unlock loop runs after Defer; parts is a worker-owned copy of t.Partitions
	parts := append(ctx.lockBuf[:0], t.PartitionSet(e.cfg.Partition)...)
	ctx.lockBuf = parts
	sort.Ints(parts)

	// Chained timestamps: each phase boundary is read once (clock reads
	// are a measurable share of a one-microsecond transaction).
	t0 := time.Now()
	var waited time.Duration
	for _, p := range parts {
		waited += e.locks[p].lock()
	}
	t1 := time.Now()

	ctx.t, ctx.parts = t, parts
	if err := t.Logic(ctx); err != nil {
		panic(fmt.Sprintf("partstore: transaction logic failed: %v", err))
	}
	// Seal the redo record — and install versioned after-images — while
	// the partition locks are still held: a dependent transaction can
	// only reach these partitions after the unlocks below, so its LSN
	// orders after this one.
	var ack func()
	if ctx.wal != nil {
		ack = comp.Defer()
	}
	engine.CommitVersions(ctx.wal, &ctx.vset, stats, ack)
	t2 := time.Now()

	for i := len(parts) - 1; i >= 0; i-- {
		e.locks[parts[i]].unlock()
	}
	t3 := time.Now()

	stats.Committed++
	stats.PartLocks += uint64(len(parts))
	stats.AddWait(waited)
	stats.AddLock(t1.Sub(t0) - waited + t3.Sub(t2))
	stats.AddExec(t2.Sub(t1))
	if ctx.wal == nil {
		comp.Finish(true)
	}
}

// execCtx accesses storage directly: partition locks already serialize all
// access, so there is no record locking, no undo, and no abort path —
// exactly the H-Store execution model. A non-nil wal appender captures
// the redo write set.
type execCtx struct {
	db      *storage.DB
	t       *txn.Txn
	wal     *wal.Appender
	stats   *metrics.ThreadStats
	pf      txn.PartitionFunc
	parts   []int // partitions locked for the current transaction, ascending (worker-owned copy)
	lockBuf []int // backing array for parts, reused across transactions
	vset    engine.VersionSet
}

// Read implements txn.Ctx.
func (c *execCtx) Read(table int, key uint64) ([]byte, error) {
	return c.db.Table(table).Get(key), nil
}

// Write implements txn.Ctx. A missing record yields nil with nothing
// noted for redo — there is no after-image to replay.
func (c *execCtx) Write(table int, key uint64) ([]byte, error) {
	rec := c.db.Table(table).Get(key)
	if rec != nil {
		if c.wal != nil {
			c.wal.Note(table, key, rec)
		}
		c.vset.Note(table, key)
	}
	return rec, nil
}

// Insert implements txn.Ctx.
func (c *execCtx) Insert(table int, key uint64, value []byte) error {
	if c.vset.Versioned(table) != nil {
		panic("partstore: in-transaction Insert on a versioned table (versioned layouts are fixed-size and load-populated)")
	}
	if err := c.db.Table(table).Insert(key, value); err != nil {
		return err
	}
	if c.wal != nil {
		c.wal.Note(table, key, c.db.Table(table).Get(key))
	}
	return nil
}

// Scan implements txn.Ctx. Phantom safety is the partition footprint:
// PartitionSet folds the partition of every key a declared range covers —
// present or not — into the transaction's lock set, so any transaction
// that could insert into the scanned range shares a partition lock with
// this one and is fully serialized against it. The scan itself is then a
// plain ordered-storage walk. The guard below asserts exactly that
// condition — every key in [lo, hi) maps to a held partition — rather
// than requiring the executed range to equal a declared one:
// OLLP-style transactions (StockLevel) legitimately recompute their
// range from rows read under the partition locks, and under an
// entity-aligned partitioner the drifted range still lands on the same
// partitions. A range that escapes the footprint is phantom-prone, so —
// like every other misuse of this engine — it panics rather than
// silently returning racy results.
func (c *execCtx) Scan(table int, lo, hi uint64, fn func(key uint64, rec []byte) error) error {
	for key := lo; key < hi; key++ {
		if p := c.pf(table, key); !containsInt(c.parts, p) {
			panic(fmt.Sprintf("partstore: Scan range t%d/[%d,%d) touches partition %d outside the transaction's footprint %v (declare a covering RangeOp)", table, lo, hi, p, c.parts))
		}
	}
	var err error
	c.db.Table(table).Scan(lo, hi, func(key uint64, rec []byte) bool {
		c.stats.Scanned++
		err = fn(key, rec)
		return err == nil
	})
	return err
}

// containsInt reports whether sorted slice s contains v.
func containsInt(s []int, v int) bool {
	i := sort.SearchInts(s, v)
	return i < len(s) && s[i] == v
}

var _ engine.System = (*Engine)(nil)

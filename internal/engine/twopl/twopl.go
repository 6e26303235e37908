// Package twopl implements the conventional architecture the paper
// critiques (§2): every worker thread interleaves transaction logic with
// concurrency control, acquiring locks from the shared lock table at the
// moment each record is first touched ("dynamic lock acquisition"), with
// deadlocks handled by a pluggable policy (wait-die, wait-for graph,
// Dreadlocks). Aborted transactions roll back their in-place writes and
// retry with the same wait-die timestamp, so old transactions eventually
// win (no starvation).
package twopl

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"repro/internal/engine"
	"repro/internal/lock"
	"repro/internal/metrics"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/wal"
	"repro/internal/workload"
)

// DefaultBuckets is the default lock-table bucket count.
const DefaultBuckets = 1 << 16

// Config configures a 2PL engine.
type Config struct {
	DB      *storage.DB
	Handler lock.Handler
	Threads int
	// Buckets overrides the lock-table bucket count (default 1<<16).
	Buckets int
	// MaxRetries bounds per-transaction retries; <=0 means retry until
	// commit (the paper's behaviour — throughput counts commits only).
	MaxRetries int
	// Wal, when enabled, makes commit acknowledgment durable: workers
	// append a redo record at pre-commit and the completion callback
	// fires from the group-commit flusher. Nil or Off = the paper's
	// instant acknowledgment.
	Wal *wal.Log
	// Snapshot tunes the MVCC snapshot-read path, active when DB has
	// versioned tables: ReadOnly transactions then bypass the lock table
	// entirely and read at the commit frontier.
	Snapshot engine.SnapshotConfig
	// Checkpoint, when its Store is set, runs a background fuzzy
	// checkpointer over the session (requires an enabled Wal); see
	// engine.CheckpointConfig.
	Checkpoint engine.CheckpointConfig
}

// Engine is a conventional dynamic-2PL execution engine.
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
		panic("twopl: Threads must be positive")
	}
	if c.Buckets < 0 {
		panic(fmt.Sprintf("twopl: Buckets must not be negative (got %d; 0 means default)", c.Buckets))
	}
	_ = c.MaxRetries // every value is legal: <=0 means retry until commit
	c.Snapshot.Validate()
	c.Checkpoint.Validate()
}

// New builds the engine and its shared lock table.
func New(cfg Config) *Engine {
	cfg.Validate()
	buckets := cfg.Buckets
	if buckets == 0 {
		buckets = DefaultBuckets
	}
	return &Engine{cfg: cfg, table: lock.NewTable(buckets, cfg.Handler)}
}

// Name implements engine.Engine.
func (e *Engine) Name() string {
	return fmt.Sprintf("%s(%dt)", e.cfg.Handler.Name(), e.cfg.Threads)
}

// Table exposes the lock table (tests).
func (e *Engine) Table() *lock.Table { return e.table }

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
			ctx := &execCtx{eng: e, thread: thread, stats: stats, vset: snaps.VersionSet()}
			if e.cfg.Wal.Enabled() {
				ctx.wal = e.cfg.Wal.NewAppender(stats)
			}
			var sctx engine.SnapshotCtx
			return func(t *txn.Txn, comp *engine.Completion) {
				t.ID = ids.Next()
				if t.ReadOnly && snaps != nil {
					// Snapshot fast path: no lock table, no wait-die
					// timestamp, no WAL round-trip (reads are durable).
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

// Clients implements engine.Runtime: two submitters per worker keep the
// queue stocked while each worker runs a transaction.
func (e *Engine) Clients() int { return 2 * e.cfg.Threads }

// execute runs one transaction to commit (or until MaxRetries gives up),
// discharging comp exactly once — inline at pre-commit without a WAL,
// from the group-commit flusher with one. The wait-die timestamp is
// fixed across retries so old transactions eventually win (no
// starvation).
func (e *Engine) execute(ctx *execCtx, t *txn.Txn, stats *metrics.ThreadStats, comp *engine.Completion) {
	t.TS = engine.Timestamp(ctx.thread)
	retries := 0
	for {
		start := time.Now()
		ctx.begin(t)
		err := t.Logic(ctx)
		if err == nil {
			ctx.commit(comp)
			total := time.Since(start)
			stats.Committed++
			stats.AddWait(ctx.waited)
			stats.AddLock(ctx.locked)
			stats.AddExec(total - ctx.waited - ctx.locked)
			if ctx.wal == nil {
				comp.Finish(true)
			}
			return
		}
		ctx.abort()
		total := time.Since(start)
		stats.Aborted++
		stats.AddWait(ctx.waited)
		stats.AddLock(ctx.locked)
		stats.AddExec(total - ctx.waited - ctx.locked)
		if !errors.Is(err, txn.ErrAborted) {
			panic(fmt.Sprintf("twopl: transaction logic failed: %v", err))
		}
		retries++
		if e.cfg.MaxRetries > 0 && retries >= e.cfg.MaxRetries {
			comp.Finish(false)
			return
		}
		// Yield before retrying so the conflicting holder can finish;
		// retry storms otherwise starve holders when logical threads
		// outnumber hardware threads.
		runtime.Gosched()
	}
}

// execCtx is the txn.Ctx for dynamic 2PL: locks are acquired on first
// touch; an undo log backs out in-place writes on abort; a non-nil wal
// appender captures the redo write set for durable commit.
type execCtx struct {
	eng    *Engine
	thread int
	wal    *wal.Appender
	stats  *metrics.ThreadStats

	t      *txn.Txn
	held   []*lock.Request
	undo   engine.UndoLog
	vset   engine.VersionSet
	fl     lock.Freelist
	waited time.Duration // lock-wait time this attempt
	locked time.Duration // lock-manager work time this attempt
}

func (c *execCtx) begin(t *txn.Txn) {
	c.t = t
	c.held = c.held[:0]
	c.undo.Reset()
	c.vset.Reset()
	c.waited, c.locked = 0, 0
}

// heldMode returns the existing request for (table,key), if any.
func (c *execCtx) heldReq(table int, key uint64) *lock.Request {
	for _, r := range c.held {
		if r.Table == table && r.Key == key {
			return r
		}
	}
	return nil
}

func (c *execCtx) acquire(table int, key uint64, mode txn.Mode) ([]byte, error) {
	if r := c.heldReq(table, key); r != nil {
		if r.Mode == txn.Read && mode == txn.Write {
			// Lock upgrades are deadlock bait and unnecessary for the
			// paper's workloads: writers must declare Write on first touch.
			return nil, fmt.Errorf("twopl: unsupported read→write upgrade on t%d/%d", table, key)
		}
		return c.eng.cfg.DB.Table(table).Get(key), nil
	}
	start := time.Now()
	r := c.fl.Get(c.t.ID, c.t.TS, c.thread)
	waited, err := c.eng.table.Acquire(r, table, key, mode)
	c.waited += waited
	c.locked += time.Since(start) - waited
	if err != nil {
		c.fl.Put(r)
		return nil, err
	}
	c.held = append(c.held, r)
	return c.eng.cfg.DB.Table(table).Get(key), nil
}

// Read implements txn.Ctx.
func (c *execCtx) Read(table int, key uint64) ([]byte, error) {
	return c.acquire(table, key, txn.Read)
}

// Write implements txn.Ctx. A missing record (possible only on growable
// tables, e.g. Delivery write-locking an order a raced NewOrder has not
// published) yields rec nil with the lock held; nothing is noted for
// redo — there is no after-image to replay.
func (c *execCtx) Write(table int, key uint64) ([]byte, error) {
	rec, err := c.acquire(table, key, txn.Write)
	if err != nil {
		return nil, err
	}
	if rec == nil {
		return nil, nil
	}
	c.undo.Record(rec)
	if c.wal != nil {
		c.wal.Note(table, key, rec)
	}
	c.vset.Note(table, key)
	return rec, nil
}

// Insert implements txn.Ctx. On a scan-protected table the key's stripe
// lock is acquired in Write mode first — the dynamic-2PL form of next-key
// locking: the insert conflicts with any concurrent scan whose range
// covers the key, and the stripe is held to commit like every other lock.
func (c *execCtx) Insert(table int, key uint64, value []byte) error {
	if c.vset.Versioned(table) != nil {
		panic("twopl: in-transaction Insert on a versioned table (versioned layouts are fixed-size and load-populated)")
	}
	if c.eng.cfg.DB.Table(table).ScanProtected() {
		if _, err := c.acquire(table, txn.StripeKey(key), txn.Write); err != nil {
			return err
		}
	}
	if err := engine.Insert(c.eng.cfg.DB, table, key, value); err != nil {
		return err
	}
	if c.wal != nil {
		c.wal.Note(table, key, c.eng.cfg.DB.Table(table).Get(key))
	}
	return nil
}

// Scan implements txn.Ctx: the dynamic-2PL scan locks lazily, like every
// other access. On a scan-protected table it first read-locks each stripe
// covering [lo, hi) — freezing the range's key population against
// inserts — then walks the ordered storage, read-locking each record
// before yielding it. Records scanned in Read mode cannot later be
// written by the same transaction (the upgrade guard in acquire).
func (c *execCtx) Scan(table int, lo, hi uint64, fn func(key uint64, rec []byte) error) error {
	if hi <= lo {
		return nil
	}
	tbl := c.eng.cfg.DB.Table(table)
	if tbl.ScanProtected() {
		first, last := txn.StripeSpan(lo, hi)
		for s := first; s <= last; s++ {
			if _, err := c.acquire(table, s, txn.Read); err != nil {
				return err
			}
		}
	}
	var err error
	tbl.Scan(lo, hi, func(key uint64, rec []byte) bool {
		// The stripe-then-record inversion below is deliberate: dynamic 2PL
		// acquires lazily in touch order, so this is the same wait-for edge
		// any lazy acquisition can create, and the configured deadlock
		// handler (wait-die / no-wait / detection) resolves it.
		//orthrus:allow(lockorder) lazy 2PL acquires in touch order; the deadlock handler resolves inversions
		if _, err = c.acquire(table, key, txn.Read); err != nil {
			return false
		}
		c.stats.Scanned++
		err = fn(key, rec)
		return err == nil
	})
	return err
}

func (c *execCtx) releaseAll() {
	start := time.Now()
	for i := len(c.held) - 1; i >= 0; i-- {
		c.eng.table.Release(c.held[i])
		c.fl.Put(c.held[i])
	}
	c.held = c.held[:0]
	c.locked += time.Since(start)
}

// commit seals the redo record — and installs versioned after-images —
// before releasing a single lock: the LSN assigned inside Wal.Commit
// must order before any dependent transaction's, and dependents can only
// run after the release below. Early lock release is safe — the
// redo-only log never exposes uncommitted data (writes are already
// applied in place), and snapshot readers resolve through version
// chains, never the live record bytes.
func (c *execCtx) commit(comp *engine.Completion) {
	c.undo.Reset()
	var ack func()
	if c.wal != nil {
		// Ownership transfer: once the flusher holds the ack it may fire —
		// and recycle t — any time; everything after this line (releaseAll)
		// iterates worker-owned c.held, never t's slices.
		ack = comp.Defer()
	}
	engine.CommitVersions(c.wal, &c.vset, c.stats, ack)
	c.releaseAll()
}

func (c *execCtx) abort() {
	c.undo.Rollback()
	c.vset.Reset()
	if c.wal != nil {
		c.wal.Abort()
	}
	c.releaseAll()
}

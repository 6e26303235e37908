package orthrus

import (
	"fmt"
	"time"

	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/txn"
	"repro/internal/wal"
)

// snapGroup is how many consecutive read-only submissions an execution
// thread runs at one snapshot in one resolution pass (flushGroup). One is
// a transaction at a time. On read_mostly the gain grows up to four and
// is flat, within the host's noise, from four to sixteen (CHANGES.md has
// the curve); a member's latency grows with the logic run after it, so
// the constant sits in the middle of the flat part.
const snapGroup = 8

// execThread is a logical execution thread. It is the same code on both
// planes: it sends acquires and releases into its rings to the CC threads
// and takes grants from theirs, and whoever consumes or feeds those rings
// — a CC thread or the node's net stepper — is not its concern.
type execThread struct {
	s     *runState
	ses   *session
	id    int
	stats *metrics.ThreadStats
	ids   engine.IDSource // by value: a heap block could share a line with another thread's
	ctx   engine.PlannedCtx
	sctx  engine.SnapshotCtx

	window   int
	inflight int

	// group holds the read-only submissions the admission loop has taken
	// and not yet run; flushGroup runs its first grouped entries as one
	// snapshot pass.
	group   [snapGroup]engine.Completion
	grouped int

	// Time accounting. exec is transaction logic; lock is the rest of
	// every step that found work (planning, messaging); wait is the rest
	// of the thread's life — empty steps, backoff, and whatever its worker
	// spent on co-hosted threads — settled once, when the thread retires,
	// as born→retire minus the other two. A step reads the clock (now)
	// only once it has found work: stepStart is that first reading, zero
	// while the step is still empty, and logicTime the logic time within
	// the step. A commit adds three readings — pickup, logic start, logic
	// end — and pickup doubles as its step's first. now is metrics.Now
	// outside tests: one monotonic clock read per stamp, where time.Now
	// would also read the wall clock.
	now       func() time.Time
	born      time.Time
	stepStart time.Time
	logicTime time.Duration

	// Planning scratch: ccBuf holds each op's CC thread, counts the op
	// count per CC thread (all zero between plans).
	ccBuf  []int32
	counts []int

	// Batched message plane: out[c] coalesces the acquires and releases
	// for CC thread c. scratch is the batched grant-drain buffer; it is
	// safe to reuse across finish calls because flushing never
	// consumes messages (see outbox.flush), so drainGrants can never
	// re-enter while iterating it.
	out     outboxes
	scratch []message
	ops     opCounter

	// wal is this thread's redo append buffer (nil when durability is
	// off). Commits pipeline into it at pre-commit and the window slot
	// frees immediately, so flush latency overlaps new transactions the
	// same way lock-wait does.
	wal *wal.Appender
}

func newExecThread(ses *session, id int, stats *metrics.ThreadStats) *execThread {
	cfg := ses.s.cfg
	x := &execThread{
		s:      ses.s,
		ses:    ses,
		id:     id,
		stats:  stats,
		ids:    *engine.NewIDSource(id),
		ctx:    engine.PlannedCtx{DB: cfg.DB, Stats: stats, VSet: ses.snaps.VersionSet()},
		window: cfg.Inflight,
		now:    metrics.Now,
		born:   metrics.Now(),
		// What a full ring leaves in out[c] needs no back-pressure to stay
		// small: at most a window of acquires plus the releases of
		// transactions granted since c last stepped, and every step of c
		// empties the ring.
		out:     newOutboxes(ses.s.execToCC[id]),
		scratch: make([]message, cfg.BatchSize),
		// counts is written on every plan: whole 128-byte blocks (its
		// size class then aligns it to 128) keep the other threads'
		// allocations off the cache-line pair it occupies.
		counts: make([]int, cfg.CCThreads, (cfg.CCThreads+15)&^15),
	}
	if cfg.Wal.Enabled() {
		x.wal = cfg.Wal.NewAppender(stats)
		x.ctx.Wal = x.wal
	}
	return x
}

// step is one pass of the execution thread: handle grants (run
// transaction logic, pipeline redo into the WAL's append buffers,
// release), top up the asynchronous window from the intake, and
// publish what the pass generated — without blocking, without I/O (the
// group-commit flusher does the writing) and without waiting on any other
// logical thread, which may be hosted by the same worker (worker.go). A
// step that finds nothing to do reads no clock.
//
//orthrus:hotpath
func (x *execThread) step() (progress, exit bool) {
	// Drain grants from every CC thread.
	x.drainGrants()

	// Top up the asynchronous window from the intake. A read-only
	// submission takes no window slot: it joins the group, which runs
	// when full and once the loop ends, so none waits past this step.
	for x.inflight < x.window {
		sub, ok := x.ses.Intake.Next()
		if !ok {
			break
		}
		start := x.now()
		if x.stepStart.IsZero() {
			x.stepStart = start
		}
		sub.Txn.ID = x.ids.Next()
		c := engine.NewCompletion(x.ses.Intake, x.stats, sub, start)
		if sub.Txn.ReadOnly && x.ses.snaps != nil {
			x.group[x.grouped] = c
			if x.grouped++; x.grouped == snapGroup {
				x.flushGroup()
			}
			continue
		}
		x.submit(c)
	}
	x.flushGroup()
	worked := !x.stepStart.IsZero()

	// Publish everything this step coalesced — and whatever a full ring
	// left over from earlier ones — before reporting idle or retiring: a
	// buffered acquire must not wait on traffic that may never come, and
	// a buffered release may be the one unblocking another thread's
	// transaction.
	published := x.out.flushAll(&x.ops)

	if worked {
		// Everything in this step that was not transaction logic is
		// messaging/planning overhead: the locking bucket.
		x.stats.AddLock(x.now().Sub(x.stepStart) - x.logicTime)
		x.stepStart, x.logicTime = time.Time{}, 0
		return true, false
	}
	if x.inflight == 0 && x.ses.Intake.Stopped() && x.out.empty() {
		// Close drains all submissions before stopping the intake, so
		// nothing can arrive after this check, and every release this
		// thread owed is in a ring (the outboxes are empty), where the
		// CC threads' last passes will find it. The thread's books close
		// here, with the logical thread — its worker may go on stepping
		// others.
		x.ops.flush(x.s)
		x.stats.AddWait(x.now().Sub(x.born) - time.Duration(x.stats.ExecNanos+x.stats.LockNanos))
		return false, true
	}
	return published, false
}

// working marks the current step productive, reading the clock if this is
// the first work the step has found.
func (x *execThread) working() {
	if x.stepStart.IsZero() {
		x.stepStart = x.now()
	}
}

// drainGrants batch-consumes every CC→exec grant ring.
func (x *execThread) drainGrants() {
	for c := 0; c < x.s.cfg.CCThreads; c++ {
		q := x.s.ccToExec[c][x.id]
		for {
			n := q.DequeueBatch(x.scratch)
			if n == 0 {
				break
			}
			x.working()
			x.ops.deq++
			for i := 0; i < n; i++ {
				x.finish(x.scratch[i].w)
			}
			if n < len(x.scratch) {
				break
			}
		}
	}
}

// flushGroup runs the read-only submissions the admission loop grouped
// on the snapshot fast path (engine.Snapshots.Exec), completed inline: no
// planning, no chain, no CC messages — the CC plane never learns they
// existed. The group's execution time starts at its first member's
// pickup, a reading inside this step.
func (x *execThread) flushGroup() {
	if x.grouped == 0 {
		return
	}
	group := x.group[:x.grouped]
	x.logicTime += x.ses.snaps.Exec(x.id, &x.sctx, group)
	clear(group) // drop the callbacks Exec has fired
	x.grouped = 0
}

// submit plans the CC chain of the read-write transaction c owns and
// sends the first acquire. c started when this execution thread accepted
// the transaction into its window; an OLLP restart submits the same
// completion again, so latency covers the whole retry chain.
func (x *execThread) submit(c engine.Completion) {
	t := c.Txn()
	// Declared ranges decompose into stripe (gap) lock ops here, before
	// sorting: each stripe routes to its CC thread like a record lock, so
	// a range becomes interval requests grouped into the chain's per-CC
	// batches — phantom protection rides the existing message plane.
	// Re-materializing on an OLLP restart only adds duplicates SortOps
	// removes.
	engine.MaterializeRanges(x.s.cfg.DB, t)
	t.SortOps()
	w := x.s.wraps.Get().(*wrapper)
	// The id is fresh per attempt: an OLLP replan must not alias the
	// previous generation's releases still in flight.
	w.c, w.owner, w.id = c, x.id, x.ids.Next()
	x.plan(w)

	if len(w.hops) == 0 {
		// No declared ops: nothing to lock, run immediately. The only
		// reference is this thread's. The open group runs first, so that
		// the group's execution time does not span this logic too.
		x.flushGroup()
		w.refs.Store(1)
		x.finish(w)
		return
	}
	// One reference per CC hop, dropped as the hop takes its release,
	// plus this thread's, dropped at the end of finish.
	w.refs.Store(int32(len(w.hops)) + 1)
	x.inflight++
	x.ops.acquires++
	x.push(w.hops[0], message{kind: msgAcquire, w: w})
}

// plan groups the transaction's ops by owning CC thread, emitting hops in
// ascending CC id — the deadlock-avoidance order (§3.2).
func (x *execThread) plan(w *wrapper) {
	t := w.c.Txn()
	if cap(x.ccBuf) < len(t.Ops) {
		//orthrus:allow(noalloc) per-thread scratch growth: reaches the largest op count seen, then stabilizes
		x.ccBuf = make([]int32, len(t.Ops))
	}
	ccs, counts := x.ccBuf[:len(t.Ops)], x.counts
	for i, op := range t.Ops {
		c := x.s.ccOf(op.Table, op.Key)
		ccs[i] = int32(c)
		counts[c]++
	}
	for c, k := range counts {
		if k == 0 {
			continue
		}
		ops, j := w.addHop(c, k), 0
		for i, op := range t.Ops {
			if int(ccs[i]) == c {
				ops[j] = op
				j++
			}
		}
		counts[c] = 0
	}
}

// push queues m for CC thread c.
func (x *execThread) push(c int, m message) {
	x.out[c].push(m, x.s.cfg.BatchSize, &x.ops)
}

// finish runs a fully-locked transaction's logic, then commits and
// releases (or re-plans after an OLLP estimate miss). A grant always
// means the whole chain is held: only the last CC thread of a chain
// notifies the owner (ccThread.advance).
func (x *execThread) finish(w *wrapper) {
	t := w.c.Txn()
	start := x.now()
	x.ctx.Begin(t)
	x.ctx.Fetch() // the grant means the footprint is held
	err := t.Logic(&x.ctx)
	d := x.now().Sub(start)
	x.stats.AddExec(d)
	x.logicTime += d

	locked := len(w.hops) > 0
	if err == nil {
		x.ctx.Commit()
		// Seal the redo record — and install versioned after-images —
		// before sending a single release: the LSN must order before any
		// dependent transaction's, and dependents can only be granted
		// after these releases. The append is a buffer write — the
		// device I/O happens on the flusher — so the window slot frees
		// immediately and CC threads never wait on a sync.
		var ack func()
		if x.wal != nil {
			// Ownership transfer: once the flusher holds the ack it may
			// fire — and recycle t — any time; the release below reads
			// only the wrapper, never t.
			ack = w.c.Defer()
		}
		engine.CommitVersions(x.wal, &x.ctx.VSet, x.stats, ack)
		x.release(w)
		x.stats.Committed++
		if locked {
			x.inflight--
		}
		if x.wal == nil {
			w.c.Finish()
		}
		x.s.dropRef(w)
		return
	}
	if err != txn.ErrEstimateMiss {
		panic(fmt.Sprintf("orthrus: transaction logic failed: %v", err))
	}
	// OLLP estimate miss (§3.2): roll back, release, re-plan, restart.
	// The session completion fires only on the final commit.
	x.ctx.Abort()
	x.release(w)
	if locked {
		x.inflight--
	}
	x.stats.Aborted++
	x.stats.Misses++
	if t.Replan == nil {
		panic("orthrus: estimate miss without Replan hook")
	}
	t.Replan(t)
	t.Partitions = t.Partitions[:0] // invalidate the cached partition set
	// The completion, and with it the transaction, moves to a fresh
	// wrapper; this one is recycled by its last reference holder.
	c := w.c
	x.s.dropRef(w)
	x.submit(c)
}

// release notifies every CC thread in the chain. Fire-and-forget: release
// requests are satisfied unconditionally (§3.1).
func (x *execThread) release(w *wrapper) {
	for _, c := range w.hops {
		x.ops.releases++
		x.push(c, message{kind: msgRelease, w: w})
	}
}

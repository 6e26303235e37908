package orthrus

import (
	"fmt"
	"sync"

	"repro/internal/locktab"
	"repro/internal/spsc"
	"repro/internal/txn"
)

// localReq is one record-lock request inside a CC thread's table. It is
// filled in, queued, granted and released by the single CC thread that
// owns the record's logical partition, so it carries no synchronization
// whatsoever — the core of the paper's argument that partitioned
// functionality makes concurrency-control metadata contention-free (§3.1).
// It lives by value in its wrapper (wrapper.reqs), one slot per declared
// op, and remembers the entry it queued on, so releasing it is a list
// unlink rather than a second lookup.
type localReq struct {
	w       *wrapper
	mode    txn.Mode
	granted bool
	key     lockKey
	pid     int32 // logical partition, selects the owning shard
	e       *lentry

	prev, next *localReq
}

type lockKey = locktab.Key

// lqueue is one record's FIFO request queue.
type lqueue struct {
	head, tail *localReq
	waiters    int // requests not yet granted
	writers    int // write requests, granted or not
}

type lentry = locktab.Entry[lqueue]

func (q *lqueue) push(r *localReq) {
	r.prev, r.next = q.tail, nil
	if q.tail != nil {
		q.tail.next = r
	} else {
		q.head = r
	}
	q.tail = r
	if r.mode == txn.Write {
		q.writers++
	}
}

func (q *lqueue) remove(r *localReq) {
	if r.prev != nil {
		r.prev.next = r.next
	} else {
		q.head = r.next
	}
	if r.next != nil {
		r.next.prev = r.prev
	} else {
		q.tail = r.prev
	}
	r.prev, r.next = nil, nil
	if r.mode == txn.Write {
		q.writers--
	}
}

// enqueue appends r and reports whether it is granted immediately. Strict
// FIFO: any conflicting request ahead — granted or waiting — blocks it,
// so a write is compatible only with an empty queue and a read only with
// a writer-free one.
func (q *lqueue) enqueue(r *localReq) bool {
	if r.mode == txn.Write {
		r.granted = q.head == nil
	} else {
		r.granted = q.writers == 0
	}
	q.push(r)
	if !r.granted {
		q.waiters++
	}
	return r.granted
}

// dequeue unlinks a granted r, appends the requests this grants to out,
// and reports whether the queue is now empty.
func (q *lqueue) dequeue(r *localReq, out []*localReq) ([]*localReq, bool) {
	q.remove(r)
	return q.grantPrefix(out), q.head == nil
}

// grantPrefix grants the longest compatible prefix of waiting requests,
// appending newly granted requests to out.
func (q *lqueue) grantPrefix(out []*localReq) []*localReq {
	if q.waiters == 0 {
		return out
	}
	var grantedWrite, grantedRead bool
	for cur := q.head; cur != nil; cur = cur.next {
		if cur.granted {
			if cur.mode == txn.Write {
				grantedWrite = true
			} else {
				grantedRead = true
			}
			continue
		}
		if cur.mode == txn.Write {
			if grantedWrite || grantedRead {
				return out
			}
			grantedWrite = true
		} else {
			if grantedWrite {
				return out
			}
			grantedRead = true
		}
		cur.granted = true
		q.waiters--
		out = append(out, cur)
	}
	return out
}

// ccTable abstracts the lock-table layout: private per-partition tables
// (the ORTHRUS design) or one latched shared table (the §3.4 alternative).
// Either way every key is operated on by exactly one CC thread at a time,
// so the grant bookkeeping stays single-owner.
type ccTable interface {
	// insert queues r and reports whether it was granted immediately.
	insert(r *localReq) bool
	// release dequeues a granted r and appends any newly granted
	// requests to out.
	release(r *localReq, out []*localReq) []*localReq
}

// privateTable is one logical partition's lock table: a latch-free
// locktab.Table owned — via the partition — by exactly one CC thread at a
// time, which is the single owner that package asks for. It is the unit
// of migration: the whole structure (slot array, entries and their free
// list) is handed to the new owner over the control plane, preserving its
// allocated capacity.
type privateTable struct {
	locktab.Table[lqueue]
}

func newPrivateTable() *privateTable {
	//orthrus:allow(noalloc) once per logical partition's first lock request; the table then lives (and migrates) forever
	return &privateTable{}
}

func (t *privateTable) insert(r *localReq) bool {
	r.e = t.Get(r.key, r.key.Hash())
	return r.e.Q.enqueue(r)
}

func (t *privateTable) release(r *localReq, out []*localReq) []*localReq {
	out, empty := r.e.Q.dequeue(r, out)
	if empty {
		t.Delete(r.e)
	}
	return out
}

// sharedTable is the §3.4 alternative: one bucketed, latched table that
// all CC threads operate on. Routing still sends each key to a single CC
// thread, so correctness is unchanged; what the variant adds back is
// synchronization and data movement on the table structure itself — each
// bucket is the same locktab.Table a private shard is, owned by whoever
// holds the bucket's latch.
type sharedTable struct {
	buckets []sharedBucket
	mask    uint64
}

type sharedBucket struct {
	mu  sync.Mutex
	tab locktab.Table[lqueue]
	_   [8]byte // pads the bucket to one cache line
}

func newSharedTable(buckets int) *sharedTable {
	n := 1
	for n < buckets {
		n <<= 1
	}
	return &sharedTable{buckets: make([]sharedBucket, n), mask: uint64(n - 1)}
}

// view adapts the shared table to the ccTable interface.
type sharedView struct{ t *sharedTable }

func (v sharedView) insert(r *localReq) bool {
	h := r.key.Hash()
	b := &v.t.buckets[h&v.t.mask]
	b.mu.Lock()
	defer b.mu.Unlock()
	r.e = b.tab.Get(r.key, h)
	return r.e.Q.enqueue(r)
}

func (v sharedView) release(r *localReq, out []*localReq) []*localReq {
	b := &v.t.buckets[r.key.Hash()&v.t.mask]
	b.mu.Lock()
	defer b.mu.Unlock()
	out, empty := r.e.Q.dequeue(r, out)
	if empty {
		b.tab.Delete(r.e)
	}
	return out
}

// ---------------------------------------------------------------------
// CC thread
// ---------------------------------------------------------------------

// ccThread is a logical CC thread: the tight request-processing loop of
// §3.3, one non-blocking pass at a time (step) — drain input rings
// round-robin, inserting lock requests, forwarding transactions up
// the chain, granting completed ones, and releasing on commit.
//
// Lock state is held as one privateTable per owned logical partition
// (shards), so ownership of a partition — its lock table, waiter queues
// and entry pool — can be detached and handed to another CC thread over
// the control channel during a live migration (controller.go). Shards are
// only ever touched by their current owner: the migration protocol drains
// every in-flight chain before a handoff, so a detached shard is
// guaranteed empty of requests.
//
// The message plane is batched (Config.BatchSize): each input ring is
// drained into inbuf and acknowledged with one ring operation per batch,
// and the forwards and grants generated while handling a drain pass are
// coalesced per destination (out) and published with one ring operation
// per batch. Order within each ring is untouched — a batch is published
// and consumed in send order — so the FIFO grant order CC threads rely on
// is preserved.
type ccThread struct {
	s  *runState
	id int
	// shards[pid] is the lock table for logical partition pid, non-nil
	// only while this thread owns pid (created lazily on first use).
	shards []*privateTable
	shared ccTable // non-nil in SharedTable mode, used for every pid
	ctrl   chan ccCtrl

	inbuf []message // batched drain buffer
	// out holds the forwards to CC threads id+1, id+2, …, then the grants
	// to exec threads 0, 1, … (see advance).
	out outboxes
	ops opCounter // forwards and grants sent, ring ops; flushed at retirement

	// Per-pass accumulation of observability counters, flushed to the
	// runState's per-thread atomics at the end of each drain pass so the
	// hot path pays local increments, not shared atomic traffic, while
	// the controller still sees near-live values.
	nAcq, nFwd, nRel, nGrant uint64
	passMsgs                 int
	pidAcc                   []uint64 // per-pid op tally this pass
	pidTouched               []int    // pids with nonzero pidAcc

	granted []*localReq // scratch for release-time grants
}

func newCCThread(s *runState, id int) *ccThread {
	c := &ccThread{
		s:      s,
		id:     id,
		shards: make([]*privateTable, s.cfg.LogicalPartitions),
		ctrl:   s.ccCtrl[id],
		inbuf:  make([]message, s.cfg.BatchSize),
		// Forwards flow strictly from lower to higher CC ids and nobody
		// waits on anybody, so a full forward ring costs the chain one
		// step of delay and can never close a cycle. Grant rings, and the
		// tcp plane's hand-offs to its net stepper, hold the owner's whole
		// in-flight window and a transaction has at most one grant
		// outstanding anywhere, so grants always fit — but nothing depends
		// on it: a refused grant waits in its outbox for the next step.
		out:    append(newOutboxes(s.ccToCC[id][id+1:]), newOutboxes(s.ccToExec[id])...),
		pidAcc: make([]uint64, s.cfg.LogicalPartitions),
	}
	if s.shared != nil {
		c.shared = sharedView{s.shared}
	}
	return c
}

// table returns the lock table for logical partition pid.
func (c *ccThread) table(pid int32) ccTable {
	if c.shared != nil {
		return c.shared
	}
	sh := c.shards[pid]
	if sh == nil {
		sh = newPrivateTable()
		c.shards[pid] = sh
	}
	return sh
}

// step is one pass of the CC thread — the latency-critical half of the
// paper's separation: it must never block, touch I/O, or wait on another
// logical thread (worker.go); only drain rings, mutate its private lock
// shards, and publish forwards and grants.
//
//orthrus:hotpath
func (c *ccThread) step() (progress, exit bool) {
	// Read the stop flag before draining: Close sets it after every
	// execution thread has retired (with empty outboxes) and the wire has
	// delivered its last frame, so a drain that starts after observing it
	// sees every message this thread will ever receive from them.
	stop := c.s.ccStop.Load()
	progress = c.drainAll()
	// The control plane is rare-path: poll it between drain passes so
	// shard handoffs interleave with — never interrupt — message
	// handling.
	select {
	case m := <-c.ctrl:
		c.handleCtrl(m)
		progress = true
	default:
	}
	if stop && !progress && c.out.empty() {
		// Nothing arrived after the stop and nothing is left to publish.
		// Nothing more can come from a peer CC thread either: Close
		// drained every submission before the stop, so only releases
		// were still in flight, and a release with no waiter behind it
		// generates no message.
		c.ops.flush(c.s)
		return false, true
	}
	return progress, false
}

// drainAll processes every currently available message, publishes what
// fits of the output (this pass's and any a full ring left over from
// earlier ones), flushes observability counters, and reports whether it
// consumed or published anything. Output a full ring refused stays in the
// outboxes for the next step (outbox.flush), so the thread may go idle
// with buffered output — its worker keeps stepping it — but never retires
// with any (step checks out.empty).
func (c *ccThread) drainAll() bool {
	progress := false
	for e := range c.s.execToCC {
		if c.drainRing(c.s.execToCC[e][c.id], true) {
			progress = true
		}
	}
	for i := range c.s.ccToCC {
		q := c.s.ccToCC[i][c.id]
		if q == nil {
			continue
		}
		if c.drainRing(q, false) {
			progress = true
		}
	}
	if progress {
		c.flushStats()
	}
	if c.out.flushAll(&c.ops) {
		progress = true
	}
	return progress
}

// drainRing batch-consumes one input ring until it is empty. fromExec
// distinguishes exec→CC rings (acquires and releases) from CC→CC rings
// (forwarded acquires) for the per-thread message breakdown.
func (c *ccThread) drainRing(q spsc.Queue[message], fromExec bool) bool {
	progress := false
	for {
		n := q.DequeueBatch(c.inbuf)
		if n == 0 {
			return progress
		}
		c.ops.deq++
		c.passMsgs += n
		for i := 0; i < n; i++ {
			c.handle(c.inbuf[i], fromExec)
		}
		progress = true
		if n < len(c.inbuf) {
			return true
		}
	}
}

func (c *ccThread) handle(m message, fromExec bool) {
	switch m.kind {
	case msgAcquire:
		if fromExec {
			c.nAcq++
		} else {
			c.nFwd++
		}
		c.acquire(m.w)
	case msgRelease:
		c.nRel++
		c.releaseTxn(m.w)
	}
}

// flushStats publishes this pass's locally accumulated counters to the
// thread's live-stats slot and per-partition load tallies (what the
// adaptive controller samples), and records the pass's message count as
// a queue-backlog high-water mark.
func (c *ccThread) flushStats() {
	live := &c.s.ccLive[c.id]
	if c.nAcq > 0 {
		live.acquires.Add(c.nAcq)
		c.nAcq = 0
	}
	if c.nFwd > 0 {
		live.forwards.Add(c.nFwd)
		c.nFwd = 0
	}
	if c.nRel > 0 {
		live.releases.Add(c.nRel)
		c.nRel = 0
	}
	if c.nGrant > 0 {
		live.grants.Add(c.nGrant)
		c.nGrant = 0
	}
	if hw := int64(c.passMsgs); hw > live.hiWater.Load() {
		live.hiWater.Store(hw)
	}
	if int64(c.passMsgs) > live.hiWaterRun.Load() {
		live.hiWaterRun.Store(int64(c.passMsgs))
	}
	c.passMsgs = 0
	for _, pid := range c.pidTouched {
		c.s.pidLoad[pid].n.Add(c.pidAcc[pid])
		c.pidAcc[pid] = 0
	}
	c.pidTouched = c.pidTouched[:0]
}

// acquire inserts the wrapper's local lock requests. If all are granted
// immediately the transaction advances down the chain; otherwise it parks
// until releases drain the conflicts.
func (c *ccThread) acquire(w *wrapper) {
	hop := w.hopIdx
	ops, reqs := w.opsByCC[hop], w.reqs[hop]
	pending := 0
	for i := range ops {
		op, r := &ops[i], &reqs[i]
		pid := c.s.pidOf(op.Table, op.Key)
		r.w = w
		r.mode = op.Mode
		r.key = lockKey{Table: op.Table, Key: op.Key}
		r.pid = int32(pid)
		if !c.tallyAndInsert(pid, r) {
			pending++
		}
	}
	w.pending = pending
	if pending == 0 {
		c.advance(w)
	}
}

// tallyAndInsert records per-partition load and inserts the request into
// the partition's shard, asserting this thread owns the partition under
// the current routing epoch. The assertion cannot misfire during a
// migration: ownership changes only after every chain planned under
// older epochs has fully drained, so any acquire that reaches this
// thread was routed by a table in which it is the owner — and the ring
// transfer orders the routing-table load here after the publish the
// sender observed.
func (c *ccThread) tallyAndInsert(pid int, r *localReq) bool {
	if c.pidAcc[pid] == 0 {
		c.pidTouched = append(c.pidTouched, pid)
	}
	c.pidAcc[pid]++
	if c.shared == nil {
		if own := c.s.rt.Load().owner[pid]; int(own) != c.id {
			panic(fmt.Sprintf("orthrus: CC thread %d received acquire for partition %d owned by %d", c.id, pid, own))
		}
	}
	return c.table(r.pid).insert(r)
}

// advance forwards the transaction to the next CC thread in its chain
// (the Ncc+1-message path), or — at the end of the chain, or always in
// the DisableForwarding ablation — notifies the owning execution thread.
func (c *ccThread) advance(w *wrapper) {
	box := c.s.cfg.CCThreads - c.id - 1 + w.owner // the owner's grant outbox
	if !c.s.cfg.DisableForwarding && w.hopIdx+1 < len(w.hops) {
		w.hopIdx++
		box = w.hops[w.hopIdx] - c.id - 1 // the next hop's forward outbox
		c.ops.forwards++
	} else {
		c.ops.grants++
		c.nGrant++
	}
	c.out[box].push(message{kind: msgAcquire, w: w, id: w.id}, c.s.cfg.BatchSize, &c.ops)
}

// releaseTxn drops this CC thread's locks for w; newly granted requests
// may complete other transactions' chains. Processing the wrapper's final
// release message retires its routing epoch — the signal the migration
// protocol's drain barrier waits on — and drops this thread's wrapper
// reference, which on the last holder recycles the wrapper and its
// transaction (runState.dropRef).
func (c *ccThread) releaseTxn(w *wrapper) {
	hop := w.hopOf(c.id)
	c.granted = c.granted[:0]
	reqs := w.reqs[hop]
	for i := range reqs {
		r := &reqs[i]
		c.granted = c.table(r.pid).release(r, c.granted)
	}
	for _, g := range c.granted {
		g.w.pending--
		if g.w.pending == 0 {
			c.advance(g.w)
		}
	}
	if w.releasesLeft.Add(-1) == 0 {
		c.s.epochs.add(w.epoch, -1)
	}
	c.s.dropRef(w)
}

// handleCtrl executes one control-plane request on this thread, so shard
// structures never have two owners.
//
//orthrus:coldpath migration control plane: a shard handoff happens per controller tick at most, and the controller is the only reply reader, so the blocking sends cannot stall the drain loop meaningfully
func (c *ccThread) handleCtrl(m ccCtrl) {
	switch m.kind {
	case ctrlDetach:
		out := make([]*privateTable, len(m.pids))
		for i, pid := range m.pids {
			sh := c.shards[pid]
			if sh != nil && sh.Len() != 0 {
				panic(fmt.Sprintf("orthrus: detaching partition %d with %d live lock entries (migration before drain)", pid, sh.Len()))
			}
			out[i] = sh
			c.shards[pid] = nil
		}
		m.reply <- out
	case ctrlInstall:
		for i, pid := range m.pids {
			if c.shards[pid] != nil {
				panic(fmt.Sprintf("orthrus: installing partition %d over a live shard", pid))
			}
			c.shards[pid] = m.shards[i]
		}
		m.reply <- nil
	}
}

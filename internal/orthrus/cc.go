package orthrus

import (
	"sync"

	"repro/internal/locktab"
	"repro/internal/spsc"
	"repro/internal/txn"
)

// localReq is one record-lock request inside a CC thread's table. It is
// filled in, queued, granted and released by the single CC thread that
// owns the record, so it carries no synchronization whatsoever — the core
// of the paper's argument that partitioned functionality makes
// concurrency-control metadata contention-free (§3.1). It lives by value
// in its wrapper (wrapper.reqs), one slot per declared op, and remembers
// the entry it queued on, so releasing it is a list unlink rather than a
// second lookup.
type localReq struct {
	w       *wrapper
	mode    txn.Mode
	granted bool
	key     lockKey
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

// ccTable abstracts the lock-table layout: one private table per CC
// thread (the ORTHRUS design) or one latched shared table (the §3.4
// alternative). Either way every key is operated on by exactly one CC
// thread, so the grant bookkeeping stays single-owner.
type ccTable interface {
	// insert queues r and reports whether it was granted immediately.
	insert(r *localReq) bool
	// release dequeues a granted r and appends any newly granted
	// requests to out.
	release(r *localReq, out []*localReq) []*localReq
}

// privateTable is one CC thread's lock table: a latch-free locktab.Table
// owned by exactly that thread, which is the single owner that package
// asks for.
type privateTable struct {
	locktab.Table[lqueue]
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
// bucket is the same locktab.Table a private table is, owned by whoever
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
// Lock state is one privateTable that only this thread touches. Every
// acquire it receives was routed here by the static record → CC map:
// in-process plans come from execThread.plan, and a wire acquire is
// checked against the same map before it reaches a ring
// (netStepper.checkAcquire), so the drain loop looks up no routing.
//
// The message plane is batched (Config.BatchSize): each input ring is
// drained into inbuf and acknowledged with one ring operation per batch,
// and the forwards and grants generated while handling a drain pass are
// coalesced per destination (out) and published with one ring operation
// per batch. Order within each ring is untouched — a batch is published
// and consumed in send order — so the FIFO grant order CC threads rely on
// is preserved.
type ccThread struct {
	s     *runState
	id    int
	table ccTable // a privateTable, or the shared one in SharedTable mode

	inbuf []message // batched drain buffer
	// out holds the forwards to CC threads id+1, id+2, …, then the grants
	// to exec threads 0, 1, … (see advance).
	out outboxes
	ops opCounter // forwards and grants sent, ring ops; flushed at retirement
	// stats is this thread's CCStats tally, stored in runState.perCC at
	// retirement; passMsgs counts the current drain pass for its
	// QueueHighWater.
	stats    CCStats
	passMsgs int

	granted []*localReq // scratch for release-time grants
}

func newCCThread(s *runState, id int) *ccThread {
	c := &ccThread{
		s:     s,
		id:    id,
		inbuf: make([]message, s.cfg.BatchSize),
		// Forwards flow strictly from lower to higher CC ids and nobody
		// waits on anybody, so a full forward ring costs the chain one
		// step of delay and can never close a cycle. Grant rings, and the
		// tcp plane's hand-offs to its net stepper, hold the owner's whole
		// in-flight window and a transaction has at most one grant
		// outstanding anywhere, so grants always fit — but nothing depends
		// on it: a refused grant waits in its outbox for the next step.
		out: append(newOutboxes(s.ccToCC[id][id+1:]), newOutboxes(s.ccToExec[id])...),
	}
	if s.shared != nil {
		c.table = sharedView{s.shared}
	} else {
		c.table = &privateTable{}
	}
	return c
}

// step is one pass of the CC thread — the latency-critical half of the
// paper's separation: it must never block, touch I/O, or wait on another
// logical thread (worker.go); only drain rings, mutate its private lock
// table, and publish forwards and grants.
//
//orthrus:hotpath
func (c *ccThread) step() (progress, exit bool) {
	// Read the stop flag before draining: Close sets it after every
	// execution thread has retired (with empty outboxes) and the wire has
	// delivered its last frame, so a drain that starts after observing it
	// sees every message this thread will ever receive from them.
	stop := c.s.ccStop.Load()
	progress = c.drainAll()
	if stop && !progress && c.out.empty() {
		// Nothing arrived after the stop and nothing is left to publish.
		// Nothing more can come from a peer CC thread either: Close
		// drained every submission before the stop, so only releases
		// were still in flight, and a release with no waiter behind it
		// generates no message. The slot is this thread's alone, and
		// Close reads it after ccWg.Wait.
		c.ops.flush(c.s)
		c.s.perCC[c.id] = c.stats
		return false, true
	}
	return progress, false
}

// drainAll processes every currently available message, publishes what
// fits of the output (this pass's and any a full ring left over from
// earlier ones), records the pass's depth, and reports whether it
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
	c.stats.QueueHighWater = max(c.stats.QueueHighWater, c.passMsgs)
	c.passMsgs = 0
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
			c.stats.Acquires++
		} else {
			c.stats.Forwards++
		}
		c.acquire(m.w)
	case msgRelease:
		c.stats.Releases++
		c.releaseTxn(m.w)
	}
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
		r.w = w
		r.mode = op.Mode
		r.key = lockKey{Table: op.Table, Key: op.Key}
		if !c.table.insert(r) {
			pending++
		}
	}
	w.pending = pending
	if pending == 0 {
		c.advance(w)
	}
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
		c.stats.Grants++
	}
	c.out[box].push(message{kind: msgAcquire, w: w, id: w.id}, c.s.cfg.BatchSize, &c.ops)
}

// releaseTxn drops this CC thread's locks for w; newly granted requests
// may complete other transactions' chains. It then drops this thread's
// wrapper reference, which on the last holder recycles the wrapper and
// its transaction (runState.dropRef).
func (c *ccThread) releaseTxn(w *wrapper) {
	hop := w.hopOf(c.id)
	c.granted = c.granted[:0]
	reqs := w.reqs[hop]
	for i := range reqs {
		c.granted = c.table.release(&reqs[i], c.granted)
	}
	for _, g := range c.granted {
		g.w.pending--
		if g.w.pending == 0 {
			c.advance(g.w)
		}
	}
	c.s.dropRef(w)
}

// Package lock implements the shared-memory record lock manager of the
// conventional baselines' locking engine (internal/engine/locking), under
// 2PL with dynamic deadlock handling and under Deadlock-free ordered
// locking. It follows the paper's description of its 2PL implementation
// (§4):
//
//   - a hash table of lock-request queues keyed by record;
//   - per-bucket latches ("per-bucket latches instead of a single latch to
//     protect the entire table"). A bucket's records sit in a
//     locktab.Table — the very index an ORTHRUS CC thread keeps per
//     partition, single-owner there by partitioning and here by the latch
//     — so a comparison between the engines prices the latch and the
//     shared cache lines, not two differently tuned hash tables;
//   - no intention locks — only fine-grained record locks in shared (S) or
//     exclusive (X) mode;
//   - request structures recycled through per-thread freelists so the hot
//     path never calls the memory allocator.
//
// Requests queue FIFO per record. A request is granted when every request
// ahead of it is compatible; on release the longest compatible prefix is
// granted. Strict FIFO means readers do not overtake waiting writers, so
// writers cannot starve.
//
// Deadlock policy is delegated to a Handler: when a request conflicts, the
// handler decides whether it may wait or must die, and supplies the wait
// mechanics (block on a channel for wait-die/wait-for-graph, spin on
// digests for Dreadlocks). The Block handler never aborts and is safe only
// under ordered acquisition (Deadlock-free locking).
package lock

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/locktab"
	"repro/internal/txn"
)

// Request state values.
const (
	stateWaiting int32 = iota
	stateGranted
)

// Request is one transaction's request for one record lock. Requests are
// owned by the requesting thread and recycled via Freelist.
type Request struct {
	TxnID  uint64
	TS     uint64 // wait-die timestamp (assigned once; survives restarts)
	Thread int    // requesting worker thread id
	Table  int
	Key    uint64
	Mode   txn.Mode

	state atomic.Int32
	ready chan struct{} // capacity 1; a token is sent on grant

	// Queue membership, guarded by the bucket latch: the entry the request
	// is queued on (nil when it is not queued) and its intrusive links.
	e          *entry
	prev, next *Request
}

// Granted reports whether the request has been granted.
func (r *Request) Granted() bool { return r.state.Load() == stateGranted }

// Ready exposes the grant channel for handlers that need to select on it
// alongside timers (wait-for graph's periodic recheck).
func (r *Request) Ready() <-chan struct{} { return r.ready }

// AwaitToken blocks until the grant token arrives.
func (r *Request) AwaitToken() { <-r.ready }

// DrainToken consumes a grant token that is known to have been sent.
func (r *Request) DrainToken() { <-r.ready }

// Decision is a Handler's verdict on a conflicting request.
type Decision int

// Handler verdicts.
const (
	Wait Decision = iota
	Die
)

// Handler plugs a deadlock policy into the table.
type Handler interface {
	// Name identifies the policy in harness output.
	Name() string
	// OnConflict is called with the bucket latch held when req conflicts
	// with the requests ahead of it in the queue. Returning Die rejects
	// the acquisition before req is enqueued.
	OnConflict(req *Request, ahead []*Request) Decision
	// Wait blocks until req is granted or the policy decides req must
	// abort. It is called without the bucket latch. Returning false means
	// the handler wants req aborted; the table then cancels the request
	// (unless a concurrent grant won the race).
	Wait(t *Table, req *Request) bool
	// OnGranted is called (without latches) after req is granted, so the
	// handler can clear wait-tracking state.
	OnGranted(req *Request)
	// OnAborted is called (without latches) after req was cancelled.
	OnAborted(req *Request)
}

// queue is one record's request queue.
type queue struct {
	head, tail *Request
	waiters    int // requests not yet granted
	writers    int // write requests, granted or not
}

type entry = locktab.Entry[queue]

// bucket is one latch and the records that hash to it: the same
// single-owner locktab.Table an ORTHRUS CC thread keeps per partition,
// here owned by whoever holds mu.
type bucket struct {
	mu  sync.Mutex
	tab locktab.Table[queue]
	_   [8]byte // pads the bucket to one cache line
}

// Table is the shared lock table.
type Table struct {
	buckets []bucket
	mask    uint64
	handler Handler
}

// NewTable returns a table with the given bucket count (rounded up to a
// power of two) and deadlock policy.
func NewTable(buckets int, h Handler) *Table {
	n := 1
	for n < buckets {
		n <<= 1
	}
	return &Table{buckets: make([]bucket, n), mask: uint64(n - 1), handler: h}
}

// bucketOf returns the bucket req's record hashes to.
func (t *Table) bucketOf(req *Request) *bucket {
	return &t.buckets[locktab.Key{Table: req.Table, Key: req.Key}.Hash()&t.mask]
}

// Acquire requests the (table,key) lock in mode for req's transaction.
// It blocks according to the handler's policy and returns the time spent
// waiting (for the execute/lock/wait breakdown) and txn.ErrAborted if the
// policy chose this transaction as a victim.
//
// The fields TxnID, TS, Thread and Mode of req must be set; Table/Key are
// filled in here.
func (t *Table) Acquire(req *Request, table int, key uint64, mode txn.Mode) (waited time.Duration, err error) {
	req.Table, req.Key, req.Mode = table, key, mode
	req.state.Store(stateWaiting)

	k := locktab.Key{Table: table, Key: key}
	h := k.Hash()
	b := &t.buckets[h&t.mask]
	b.mu.Lock()
	e := b.tab.Get(k, h)

	conflict := e.Q.conflictsAhead(req.Mode, nil)
	if conflict == nil {
		req.state.Store(stateGranted)
		push(e, req)
		b.mu.Unlock()
		return 0, nil
	}

	if t.handler.OnConflict(req, conflict) == Die {
		b.vacate(e)
		b.mu.Unlock()
		t.handler.OnAborted(req)
		return 0, txn.ErrAborted
	}

	push(e, req)
	e.Q.waiters++
	b.mu.Unlock()

	start := time.Now()
	ok := t.handler.Wait(t, req)
	waited = time.Since(start)
	if ok {
		t.handler.OnGranted(req)
		return waited, nil
	}
	// Handler wants an abort; cancel unless a concurrent grant won.
	if t.cancel(req) {
		t.handler.OnAborted(req)
		return waited, txn.ErrAborted
	}
	t.handler.OnGranted(req)
	return waited, nil
}

// Release drops req's lock and grants newly compatible requests.
// req must have been granted.
func (t *Table) Release(req *Request) {
	b := t.bucketOf(req)
	b.mu.Lock()
	e := req.e
	remove(e, req)
	e.Q.grantPrefix()
	b.vacate(e)
	b.mu.Unlock()
}

// cancel removes a waiting request. It returns false when the request was
// granted before the latch was taken (the caller then owns a granted lock
// and a pending token).
func (t *Table) cancel(req *Request) bool {
	b := t.bucketOf(req)
	b.mu.Lock()
	if req.Granted() {
		b.mu.Unlock()
		req.DrainToken()
		return false
	}
	e := req.e
	remove(e, req)
	e.Q.waiters--
	// Removing a waiter can unblock requests queued behind it.
	e.Q.grantPrefix()
	b.vacate(e)
	b.mu.Unlock()
	return true
}

// Blockers returns the thread ids of requests ahead of req that conflict
// with it, and whether req is still waiting. Dreadlocks polls this.
func (t *Table) Blockers(req *Request, out []int) (blockers []int, waiting bool) {
	if req.Granted() {
		return out[:0], false
	}
	b := t.bucketOf(req)
	b.mu.Lock()
	if req.Granted() {
		b.mu.Unlock()
		return out[:0], false
	}
	out = out[:0]
	e := req.e
	if e == nil {
		// The request is not enqueued (caller raced with its own
		// Acquire); report "still waiting, no known blockers".
		b.mu.Unlock()
		return out, true
	}
	for cur := e.Q.head; cur != nil && cur != req; cur = cur.next {
		if cur.Mode.Conflicts(req.Mode) {
			out = append(out, cur.Thread)
		}
	}
	b.mu.Unlock()
	return out, true
}

// --- entry operations (bucket latch held) -------------------------------

// vacate drops e's record from the bucket once its queue has emptied.
func (b *bucket) vacate(e *entry) {
	if e.Q.head == nil {
		b.tab.Delete(e)
	}
}

// conflictsAhead returns the requests that conflict with a new request of
// the given mode under strict FIFO (nil when none, meaning immediate
// grant). Appends into scratch to avoid allocation when provided.
func (q *queue) conflictsAhead(mode txn.Mode, scratch []*Request) []*Request {
	// A write conflicts with anything and a read with any write, so the
	// common verdict — nothing ahead conflicts — needs no walk.
	if q.head == nil || mode == txn.Read && q.writers == 0 {
		return nil
	}
	out := scratch[:0]
	for cur := q.head; cur != nil; cur = cur.next {
		// Any waiting request ahead blocks a conflicting newcomer; strict
		// FIFO additionally blocks a newcomer behind any waiter it
		// conflicts with even if current holders are compatible.
		if cur.Mode.Conflicts(mode) {
			out = append(out, cur)
		}
	}
	return out
}

// push and remove take the entry, not the queue: the request keeps it, so
// Release and cancel look nothing up.
func push(e *entry, r *Request) {
	q := &e.Q
	r.e, r.prev, r.next = e, q.tail, nil
	if q.tail != nil {
		q.tail.next = r
	} else {
		q.head = r
	}
	q.tail = r
	if r.Mode == txn.Write {
		q.writers++
	}
}

func remove(e *entry, r *Request) {
	q := &e.Q
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
	r.e, r.prev, r.next = nil, nil, nil
	if r.Mode == txn.Write {
		q.writers--
	}
}

// grantPrefix grants the longest compatible prefix of waiting requests.
func (q *queue) grantPrefix() {
	if q.waiters == 0 {
		return
	}
	var grantedWrite, grantedRead bool
	for cur := q.head; cur != nil; cur = cur.next {
		if cur.Granted() {
			if cur.Mode == txn.Write {
				grantedWrite = true
			} else {
				grantedRead = true
			}
			continue
		}
		if cur.Mode == txn.Write {
			if grantedWrite || grantedRead {
				return
			}
			grantedWrite = true
		} else {
			if grantedWrite {
				return
			}
			grantedRead = true
		}
		cur.state.Store(stateGranted)
		q.waiters--
		cur.ready <- struct{}{}
	}
}

// --- freelist ------------------------------------------------------------

// Freelist recycles Requests for one worker thread.
type Freelist struct {
	free []*Request
}

// Get returns a fresh or recycled request with identity fields set.
func (f *Freelist) Get(txnID, ts uint64, thread int) *Request {
	var r *Request
	if n := len(f.free); n > 0 {
		r = f.free[n-1]
		f.free = f.free[:n-1]
	} else {
		r = &Request{ready: make(chan struct{}, 1)}
	}
	r.TxnID, r.TS, r.Thread = txnID, ts, thread
	return r
}

// Put recycles a request whose lock has been released or cancelled.
func (f *Freelist) Put(r *Request) {
	r.prev, r.next = nil, nil
	f.free = append(f.free, r)
}

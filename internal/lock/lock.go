// Package lock implements the shared-memory record lock manager of the
// conventional baselines' locking engine (internal/engine/locking), under
// 2PL with dynamic deadlock handling and under Deadlock-free ordered
// locking. It follows the paper's description of its 2PL implementation
// (§4):
//
//   - a hash table of lock-request queues keyed by record;
//   - per-bucket latches ("per-bucket latches instead of a single latch to
//     protect the entire table"). A bucket's records sit in a
//     locktab.Table of locktab.Queues — the very index and queue an
//     ORTHRUS CC thread keeps per partition, single-owner there by
//     partitioning and here by the latch — so a comparison between the
//     engines prices the latch and the shared cache lines, not two
//     differently tuned hash tables or grant loops;
//   - no intention locks — only fine-grained record locks in shared (S) or
//     exclusive (X) mode;
//   - request structures recycled through per-thread freelists so the hot
//     path never calls the memory allocator.
//
// Requests queue and are granted by locktab's grant rule (stated in that
// package's doc). A grant is returned by the queue under the bucket latch
// and signalled to its waiter after the latch is dropped (see signal).
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
	"repro/internal/metrics"
	"repro/internal/txn"
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

	granted atomic.Bool   // stored by signal, before the token is sent
	ready   chan struct{} // capacity 1; a token is sent on grant

	// The request's place in its record's queue (link.Owner is the
	// request itself) and the entry it is queued on are guarded by the
	// bucket latch. Its bucket and scratch are the owner's: scratch holds
	// the requests one of its calls found ahead of it or granted.
	link    locktab.Link[Request]
	e       *entry
	b       *bucket
	scratch []*Request
}

// Granted reports whether the request has been granted.
func (r *Request) Granted() bool { return r.granted.Load() }

// Ready exposes the grant channel for handlers that need to select on it
// alongside timers (wait-for graph's periodic recheck).
func (r *Request) Ready() <-chan struct{} { return r.ready }

// AwaitToken blocks until the grant token arrives; it is sent after the
// request is granted, on the granter's way out of the latch.
func (r *Request) AwaitToken() { <-r.ready }

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

type entry = locktab.Entry[locktab.Queue[Request]]

// bucket is one latch and the records that hash to it: the same
// single-owner locktab.Table an ORTHRUS CC thread keeps per partition,
// here owned by whoever holds mu.
type bucket struct {
	mu  sync.Mutex
	tab locktab.Table[locktab.Queue[Request]]
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

// Acquire requests the (table,key) lock in mode for req's transaction.
// It blocks according to the handler's policy and returns the time spent
// waiting (for the execute/lock/wait breakdown) and txn.ErrAborted if the
// policy chose this transaction as a victim.
//
// The fields TxnID, TS and Thread of req must be set; Table, Key and Mode
// are filled in here.
func (t *Table) Acquire(req *Request, table int, key uint64, mode txn.Mode) (waited time.Duration, err error) {
	req.Table, req.Key, req.Mode = table, key, mode
	req.link.Owner, req.link.Mode = req, mode

	k := locktab.Key{Table: table, Key: key}
	h := k.Hash()
	b := &t.buckets[h&t.mask]
	b.mu.Lock()
	e := b.tab.Get(k, h)

	if !e.Q.Grantable(mode) {
		req.scratch = e.Q.Conflicts(nil, mode, req.scratch[:0])
		if t.handler.OnConflict(req, req.scratch) == Die {
			b.vacate(e)
			b.mu.Unlock()
			t.handler.OnAborted(req)
			return 0, txn.ErrAborted
		}
	}
	req.b, req.e = b, e
	granted := e.Q.Push(&req.link)
	req.granted.Store(granted)
	b.mu.Unlock()
	if granted {
		return 0, nil
	}

	start := metrics.Now()
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
	b := req.b
	b.mu.Lock()
	b.remove(req)
	b.mu.Unlock()
	signal(req.scratch)
}

// cancel removes a waiting request. It returns false when the request was
// granted before the latch was taken (the caller then owns a granted lock
// and drains the token its granter sends once out of the latch).
func (t *Table) cancel(req *Request) bool {
	b := req.b
	b.mu.Lock()
	if req.link.Granted {
		b.mu.Unlock()
		req.AwaitToken()
		return false
	}
	// Removing a waiter can unblock requests queued behind it.
	b.remove(req)
	b.mu.Unlock()
	signal(req.scratch)
	return true
}

// signal hands each request a grant the queue returned to the latch
// holder, once the latch is dropped: it stores the atomic, then sends the
// token. Under the latch (cancel, Blockers) "granted" is the queue's plain
// bit, set by Remove, so a request found granted there has its token
// on the way and its owner waits for it. Outside the latch (Dreadlocks'
// Granted poll) it is the atomic, stored before the send, so the same
// holds. After the send the owner may run on and recycle the request, so
// nothing touches it afterwards.
func signal(grants []*Request) {
	for _, g := range grants {
		g.granted.Store(true)
		g.ready <- struct{}{}
	}
}

// Blockers returns the thread ids of requests ahead of req that conflict
// with it, and whether req is still waiting. Dreadlocks polls this.
// req must be queued (its Acquire has called the handler's Wait).
func (t *Table) Blockers(req *Request, out []int) (blockers []int, waiting bool) {
	req.b.mu.Lock()
	defer req.b.mu.Unlock()
	if req.link.Granted {
		return out[:0], false
	}
	out = out[:0]
	req.scratch = req.e.Q.Conflicts(&req.link, req.Mode, req.scratch[:0])
	for _, r := range req.scratch {
		out = append(out, r.Thread) // under the latch: r may be recycled once it leaves
	}
	return out, true
}

// remove unlinks req from its queue, leaves the requests its leaving
// grants in req.scratch for the caller to signal once the latch is
// dropped, and drops the record from the bucket if its queue emptied.
// The bucket latch is held.
func (b *bucket) remove(req *Request) {
	e := req.e
	req.scratch = e.Q.Remove(&req.link, req.scratch[:0])
	b.vacate(e)
}

// vacate drops e's record from the bucket once its queue has emptied.
func (b *bucket) vacate(e *entry) {
	if e.Q.Empty() {
		b.tab.Delete(e)
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
func (f *Freelist) Put(r *Request) { f.free = append(f.free, r) }

// Package wal is the durable commit pipeline shared by every engine in
// this repository: a redo-only write-ahead log with per-execution-thread
// append buffers, a group-commit flusher, and crash recovery by replay.
//
// The paper's prototype scopes durability out entirely (§3: commits are
// acknowledged the instant execution finishes). This package makes
// acknowledgment durable without serializing engines on I/O, reusing the
// batching discipline of the ORTHRUS message plane: one expensive device
// sync is amortized across a group of commits, the way one ring publish
// is amortized across a batch of messages.
//
// # Protocol
//
// Commit is split in two stages. At pre-commit — transaction logic done,
// locks still held — the executing thread encodes the transaction's
// after-images into its private Appender buffer and is assigned a log
// sequence number (LSN); then it releases its locks and moves on. Early
// lock release is safe under redo-only logging: in-place writes are
// already applied, nothing exposes uncommitted data, and any dependent
// transaction that reads those writes necessarily commits with a higher
// LSN (its LSN is assigned after acquiring the conflicting lock, which
// happens after this release, which happens after this LSN assignment).
// The flusher goroutine sweeps all appender buffers, writes them to the
// Device, syncs per policy, and fires completion acknowledgments in LSN
// order — an acknowledgment never outruns the durability of any earlier
// LSN, so the set of acknowledged transactions is always a
// dependency-closed prefix of the commit order.
//
// # Sync policies
//
//   - Off:   the log is inert. Engines skip capture and acknowledge at
//     pre-commit, exactly the paper's behaviour; the pipeline costs
//     nothing.
//   - Async: records are appended and flushed in the background, but
//     acknowledgment fires at pre-commit. A crash can lose acknowledged
//     work (PostgreSQL synchronous_commit=off semantics); Drain still
//     waits for the tail, so a clean shutdown loses nothing.
//   - Group(k, interval): acknowledgment fires after the record is
//     synced. The flusher syncs when k commits are pending or after
//     interval, whichever comes first — the classic group-commit
//     trade-off between commit latency and syncs per second.
//
// Replay rebuilds a storage.DB from a (possibly torn) log image: it
// scans each segment until its first corruption, then applies the longest
// contiguous LSN prefix, which is exactly the committed-prefix guarantee
// the acknowledgment order establishes.
package wal

import (
	"container/heap"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
)

// SyncMode selects how commit acknowledgment relates to device syncs.
type SyncMode uint8

// Sync modes; see the package comment.
const (
	SyncOff SyncMode = iota
	SyncAsync
	SyncGroup
)

// Defaults for Group policy knobs left zero.
const (
	DefaultGroupSize = 64
	DefaultInterval  = 200 * time.Microsecond
)

// SyncPolicy is a log's durability discipline.
type SyncPolicy struct {
	Mode SyncMode
	// GroupSize is the pending-commit count that triggers an immediate
	// flush (default 64). Also used by Async to pace background flushes.
	GroupSize int
	// Interval bounds how long a pending commit waits for its group to
	// fill before the flusher syncs anyway (default 200µs).
	Interval time.Duration
}

// Off returns the inert policy.
func Off() SyncPolicy { return SyncPolicy{Mode: SyncOff} }

// Async returns the background-flush policy.
func Async() SyncPolicy { return SyncPolicy{Mode: SyncAsync} }

// Group returns the group-commit policy; zero k or interval means the
// package default.
func Group(k int, interval time.Duration) SyncPolicy {
	return SyncPolicy{Mode: SyncGroup, GroupSize: k, Interval: interval}
}

func (p SyncPolicy) withDefaults() SyncPolicy {
	if p.GroupSize <= 0 {
		p.GroupSize = DefaultGroupSize
	}
	if p.Interval <= 0 {
		p.Interval = DefaultInterval
	}
	return p
}

// String implements fmt.Stringer ("off", "async", "group(64,200µs)").
func (p SyncPolicy) String() string {
	switch p.Mode {
	case SyncOff:
		return "off"
	case SyncAsync:
		return "async"
	default:
		p = p.withDefaults()
		return fmt.Sprintf("group(%d,%v)", p.GroupSize, p.Interval)
	}
}

// Stats counts the flusher's work — the MessageStats analogue for the
// commit pipeline: records vs flush batches quantifies the achieved
// group-commit amortization the same way messages vs ring ops quantifies
// message batching.
type Stats struct {
	Records uint64 // redo records written to the device
	Bytes   uint64 // bytes written
	Flushes uint64 // flush passes that wrote at least one record
	Syncs   uint64 // device sync operations
	// MaxFlushRecords is the largest single flush pass in records.
	MaxFlushRecords uint64
}

// RecordsPerFlush reports the achieved group-commit batching factor.
func (s Stats) RecordsPerFlush() float64 {
	if s.Flushes == 0 {
		return 0
	}
	return float64(s.Records) / float64(s.Flushes)
}

// ack is one pending acknowledgment: fired by the flusher, in LSN order,
// once the record's durability requirement is met.
type ack struct {
	lsn   uint64
	enq   time.Time
	fn    func()
	stats *metrics.ThreadStats
	// owner is set on read-only waiters only: the appender whose
	// outstanding-waiter count the flusher drops after firing fn.
	owner *Appender
}

// ackHeap is a min-heap of pending acks by LSN.
type ackHeap []ack

func (h ackHeap) Len() int            { return len(h) }
func (h ackHeap) Less(i, j int) bool  { return h[i].lsn < h[j].lsn }
func (h ackHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *ackHeap) Push(x interface{}) { *h = append(*h, x.(ack)) }
func (h *ackHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// Log is a redo log: a set of per-thread Appenders feeding one flusher
// goroutine that owns the Device. A nil *Log (or one opened with the Off
// policy) is inert: Enabled reports false and Drain/Close are no-ops, so
// engines hold a *Log unconditionally and pay a nil check when off.
type Log struct {
	dev    Device
	policy SyncPolicy

	// nextLSN is the last assigned LSN; durableLSN the acknowledged
	// frontier (every LSN ≤ durableLSN is synced per policy and acked).
	nextLSN    atomic.Uint64
	durableLSN atomic.Uint64

	// pending counts commits enqueued but not yet stolen by the flusher —
	// the group-trigger gauge.
	pending atomic.Int64
	force   atomic.Bool // Drain: skip the interval wait
	wake    chan struct{}
	stopc   chan struct{}
	donec   chan struct{}
	closed  atomic.Bool

	mu        sync.Mutex // guards appenders
	appenders []*Appender

	// durMu/durCond announce flush passes to WaitDurable: the flusher
	// broadcasts after every pass, once durableLSN is stored.
	durMu   sync.Mutex
	durCond *sync.Cond

	// flusher-owned. acks holds write commits keyed by their own LSN;
	// waiters holds read-only commits keyed by the log tail they observed
	// (fired once the frontier reaches it — see Appender.Commit).
	acks     ackHeap
	waiters  ackHeap
	frontier uint64

	stRecords, stBytes, stFlushes, stSyncs atomic.Uint64
	stMaxFlush                             atomic.Uint64
}

// NewLog opens a log over dev with the given policy and starts its
// flusher. With the Off policy no flusher runs and dev may be nil.
func NewLog(dev Device, policy SyncPolicy) *Log {
	l := &Log{dev: dev, policy: policy.withDefaults()}
	l.durCond = sync.NewCond(&l.durMu)
	if policy.Mode == SyncOff {
		return l
	}
	if dev == nil {
		panic("wal: NewLog needs a Device unless the policy is Off")
	}
	l.wake = make(chan struct{}, 1)
	l.stopc = make(chan struct{})
	l.donec = make(chan struct{})
	go l.flusher()
	return l
}

// Enabled reports whether commits must pass through the log. Safe on a
// nil receiver.
func (l *Log) Enabled() bool { return l != nil && l.policy.Mode != SyncOff }

// Policy returns the log's sync policy (zero value on a nil receiver).
func (l *Log) Policy() SyncPolicy {
	if l == nil {
		return SyncPolicy{Mode: SyncOff}
	}
	return l.policy
}

// LastLSN returns the highest LSN assigned so far.
func (l *Log) LastLSN() uint64 { return l.nextLSN.Load() }

// DurableLSN returns the acknowledged frontier: every LSN up to and
// including it has been written and synced per policy.
func (l *Log) DurableLSN() uint64 { return l.durableLSN.Load() }

// Stats returns a snapshot of the flusher's counters.
func (l *Log) Stats() Stats {
	if l == nil {
		return Stats{}
	}
	return Stats{
		Records:         l.stRecords.Load(),
		Bytes:           l.stBytes.Load(),
		Flushes:         l.stFlushes.Load(),
		Syncs:           l.stSyncs.Load(),
		MaxFlushRecords: l.stMaxFlush.Load(),
	}
}

// NewAppender registers a per-thread append buffer. stats, when non-nil,
// receives the flush-stall time of this appender's commits (LogNanos).
// Appenders live for the log's lifetime; a session that restarts simply
// registers fresh ones, and drained stale appenders cost the flusher an
// empty-buffer check per pass.
func (l *Log) NewAppender(stats *metrics.ThreadStats) *Appender {
	if !l.Enabled() {
		panic("wal: NewAppender on a disabled log")
	}
	a := &Appender{log: l, stats: stats}
	l.mu.Lock()
	l.appenders = append(l.appenders, a)
	l.mu.Unlock()
	return a
}

// Drain blocks until every assigned LSN is durable and acknowledged —
// the log-tail barrier session Drain/Close sits on. No-op when disabled.
func (l *Log) Drain() {
	if !l.Enabled() {
		return
	}
	l.WaitDurable(l.nextLSN.Load())
}

// WaitDurable blocks until the durable frontier reaches lsn, forcing
// flusher passes rather than waiting out group-fill windows. The fuzzy
// checkpointer sits on this barrier before committing a manifest: every
// record the checkpoint image may depend on must be on the device before
// the manifest authorizes truncating the log below it. No-op when the
// log is disabled or lsn is already durable.
//
// The wait is on the flusher's per-pass broadcast, not a timer. The
// frontier check and the cond wait share durMu with the broadcast, so a
// pass that ends between them cannot be missed; a pass that ends short
// of lsn (an appender was still sealing the record) is simply forced
// again.
func (l *Log) WaitDurable(lsn uint64) {
	if !l.Enabled() {
		return
	}
	l.durMu.Lock()
	defer l.durMu.Unlock()
	for l.durableLSN.Load() < lsn {
		l.force.Store(true)
		l.wakeFlusher()
		l.durCond.Wait()
	}
}

// wakeFlusher asks the flusher to re-evaluate its triggers. A token
// already in the channel serves this caller too.
func (l *Log) wakeFlusher() {
	select {
	case l.wake <- struct{}{}:
	default:
	}
}

// Truncate drops log segments whose contents lie wholly at or below
// belowLSN, returning how many segments were dropped (0 on a disabled
// log). The caller is responsible for the truncation rule: only truncate
// below an LSN from which a durably committed checkpoint can rebuild the
// database.
func (l *Log) Truncate(belowLSN uint64) int {
	if !l.Enabled() {
		return 0
	}
	return l.dev.Truncate(belowLSN)
}

// Close drains the log, stops the flusher and closes the device. Safe on
// a disabled log; a second Close is a no-op.
func (l *Log) Close() error {
	if !l.Enabled() {
		return nil
	}
	if !l.closed.CompareAndSwap(false, true) {
		return nil
	}
	l.Drain()
	close(l.stopc)
	<-l.donec
	return l.dev.Close()
}

// flusher is the group-commit daemon: it sleeps until work is pending,
// gives the group its interval to fill (unless the group-size trigger or
// a Drain fires first), then sweeps, writes, syncs and acknowledges.
// Wake tokens mean only "re-evaluate" — a stale token must not cut a
// group's fill window short, so every wake re-checks the actual trigger.
func (l *Log) flusher() {
	defer close(l.donec)
	for {
		for l.pending.Load() == 0 && !l.force.Load() {
			select {
			case <-l.stopc:
				l.flushPass()
				return
			case <-l.wake:
			}
		}
		if !l.force.Swap(false) && l.pending.Load() < int64(l.policy.GroupSize) {
			deadline := time.NewTimer(l.policy.Interval)
		fill:
			for {
				select {
				case <-l.stopc:
					deadline.Stop()
					l.flushPass()
					return
				case <-l.wake:
					if l.force.Swap(false) || l.pending.Load() >= int64(l.policy.GroupSize) {
						break fill
					}
				case <-deadline.C:
					break fill
				}
			}
			deadline.Stop()
		}
		l.flushPass()
	}
}

// flushPass steals every appender's buffer and pending acks, writes the
// stolen bytes, syncs (group mode), and fires acknowledgments up to the
// contiguous-LSN frontier. Records whose LSN has a not-yet-stolen
// predecessor stay queued; the predecessor arrives in a later pass and
// the frontier catches up — acknowledgment order is LSN order, always.
func (l *Log) flushPass() {
	l.mu.Lock()
	apps := l.appenders
	l.mu.Unlock()

	var stolen int
	var wroteRecords, wroteBytes uint64
	var passMaxLSN uint64 // highest LSN among records written this pass
	for _, a := range apps {
		a.mu.Lock()
		buf, acks, waiters := a.buf, a.acks, a.waiters
		if len(buf) == 0 && len(acks) == 0 && len(waiters) == 0 {
			a.mu.Unlock()
			continue
		}
		a.buf, a.acks = a.spareBuf, a.spareAcks
		a.spareBuf, a.spareAcks = nil, nil
		a.waiters = nil
		a.mu.Unlock()
		for _, k := range waiters {
			heap.Push(&l.waiters, k)
		}
		stolen += len(waiters)

		if len(buf) > 0 {
			if _, err := l.dev.Write(buf); err != nil {
				panic(fmt.Sprintf("wal: device write failed: %v", err))
			}
			wroteBytes += uint64(len(buf))
		}
		wroteRecords += uint64(len(acks))
		stolen += len(acks)
		for _, k := range acks {
			if k.lsn > passMaxLSN {
				passMaxLSN = k.lsn
			}
			heap.Push(&l.acks, k)
		}
		// Recycle the stolen slices so steady state reuses two buffers
		// per appender instead of allocating per flush.
		a.mu.Lock()
		a.spareBuf, a.spareAcks = buf[:0], acks[:0]
		a.mu.Unlock()
	}

	// Async differs from Group in when acknowledgments fire, not in
	// whether the device is synced: the background sync here is what
	// makes Drain's log-tail barrier a durability guarantee under both.
	if wroteBytes > 0 {
		if err := l.dev.Sync(); err != nil {
			panic(fmt.Sprintf("wal: device sync failed: %v", err))
		}
		l.stSyncs.Add(1)
		// Segment bookkeeping sits strictly after the sync: rotation only
		// ever seals fully-synced bytes, so a sealed segment's MaxLSN
		// bound and its contents are durable together.
		l.dev.Mark(passMaxLSN)
	}
	if wroteRecords > 0 {
		l.stRecords.Add(wroteRecords)
		l.stBytes.Add(wroteBytes)
		l.stFlushes.Add(1)
		if wroteRecords > l.stMaxFlush.Load() {
			l.stMaxFlush.Store(wroteRecords)
		}
	}
	if stolen > 0 {
		l.pending.Add(-int64(stolen))
	}

	now := time.Now()
	for l.acks.Len() > 0 && l.acks[0].lsn == l.frontier+1 {
		k := heap.Pop(&l.acks).(ack)
		l.frontier++
		if k.stats != nil {
			k.stats.AddLog(now.Sub(k.enq))
		}
		if k.fn != nil {
			k.fn()
		}
	}
	// Read-only waiters fire once the log tail they observed is durable —
	// after the write acks above, so a reader is never acknowledged ahead
	// of a writer it depends on.
	for l.waiters.Len() > 0 && l.waiters[0].lsn <= l.frontier {
		k := heap.Pop(&l.waiters).(ack)
		if k.stats != nil {
			k.stats.AddLog(now.Sub(k.enq))
		}
		if k.fn != nil {
			k.fn()
		}
		// After fn: the count is what keeps the owner's inline read-only
		// fast path off the state fn just wrote.
		k.owner.roWaiters.Add(-1)
	}
	l.durableLSN.Store(l.frontier)
	l.durMu.Lock()
	l.durCond.Broadcast()
	l.durMu.Unlock()
}

// Appender is one execution thread's append buffer. Note/Abort/Commit
// are called only by the owning thread; the internal mutex exists solely
// for the flusher's steal, so it is all but uncontended.
type Appender struct {
	log   *Log
	stats *metrics.ThreadStats

	mu        sync.Mutex
	buf       []byte // encoded records awaiting the flusher
	acks      []ack
	waiters   []ack  // read-only commits awaiting the frontier
	spareBuf  []byte // recycled by the flusher after writing
	spareAcks []ack

	// roWaiters counts this appender's read-only waiters enqueued but not
	// yet fired: raised by the owning thread, dropped by the flusher after
	// each fire.
	roWaiters atomic.Int32

	writes []redoWrite // current transaction's captured after-images
}

// Note captures one write's after-image: rec is the live record slice of
// (table, key), read at encode time — which happens at Commit, while the
// transaction still holds its locks, so the bytes are this transaction's
// images. Duplicate (table, key) notes collapse.
//
//orthrus:hotpath
func (a *Appender) Note(table int, key uint64, rec []byte) {
	for i := range a.writes {
		if a.writes[i].key == key && a.writes[i].table == int32(table) {
			a.writes[i].val = rec
			return
		}
	}
	a.writes = append(a.writes, redoWrite{table: int32(table), key: key, val: rec})
}

// Pending returns the number of writes captured for the current
// transaction.
func (a *Appender) Pending() int { return len(a.writes) }

// Abort discards the current transaction's captured writes.
//
//orthrus:hotpath
func (a *Appender) Abort() { a.writes = a.writes[:0] }

// Commit seals the current transaction: it assigns the next LSN, encodes
// the captured after-images into the append buffer, and schedules fn to
// run once the record is durable (group mode) — in LSN order relative to
// every other commit. Under Async, fn runs inline before Commit returns.
//
// A transaction with no captured writes (read-only) consumes no LSN, but
// under Group it may still have observed another transaction's writes
// before they were synced (locks release at pre-commit), so it must not
// be acknowledged ahead of them: its acknowledgment waits for the log
// tail it observed — the current last assigned LSN — unless that tail is
// already durable and no earlier read-only commit of this appender is
// still waiting, in which case it fires inline. The inline path cannot
// race the flusher on this appender's stats: every earlier write commit
// of this appender has an LSN at or below the observed tail, so the
// flusher fired its acknowledgment before it advanced the durable
// frontier that far; an earlier read-only commit has no LSN of its own —
// it can sit unfired in the flusher (enqueued just after the pass that
// made its tail durable had swept this appender) while the frontier
// already covers it — so those are counted (roWaiters) and the fast path
// is taken only at zero.
//
// Commit must be called at pre-commit, before the transaction releases
// its locks: the LSN order is the committed-prefix order only because
// conflicting transactions are serialized across this call by the locks
// they contend on.
//
//orthrus:hotpath
func (a *Appender) Commit(fn func()) { a.CommitWith(nil, fn) }

// CommitWith is Commit with a version-install hook: when install is
// non-nil it runs synchronously with the assigned LSN while the record
// is still unstealable — inside the appender mutex, before the flusher
// can collect it — so the durable frontier (the snapshot point for
// read-only transactions) cannot reach this LSN before its versions are
// installed. install must not block and must not call back into the log.
// A commit with no captured writes has no LSN to stamp, so a non-nil
// install there panics — versioned writers always capture after-images.
//
//orthrus:hotpath
func (a *Appender) CommitWith(install func(lsn uint64), fn func()) {
	l := a.log
	if len(a.writes) == 0 {
		if install != nil {
			panic("wal: CommitWith install hook on a commit with no captured writes")
		}
		tail := l.nextLSN.Load()
		if l.policy.Mode != SyncGroup || (tail <= l.durableLSN.Load() && a.roWaiters.Load() == 0) {
			if fn != nil {
				fn()
			}
			return
		}
		a.roWaiters.Add(1)
		a.mu.Lock()
		a.waiters = append(a.waiters, ack{lsn: tail, enq: time.Now(), fn: fn, stats: a.stats, owner: a})
		a.mu.Unlock()
		if n := l.pending.Add(1); n == 1 || n >= int64(l.policy.GroupSize) {
			l.wakeFlusher()
		}
		return
	}
	now := time.Now()
	inline := l.policy.Mode == SyncAsync
	a.mu.Lock()
	lsn := l.nextLSN.Add(1)
	a.buf = appendRecord(a.buf, lsn, a.writes)
	if install != nil {
		install(lsn)
	}
	if inline {
		a.acks = append(a.acks, ack{lsn: lsn})
	} else {
		a.acks = append(a.acks, ack{lsn: lsn, enq: now, fn: fn, stats: a.stats})
	}
	a.mu.Unlock()
	a.writes = a.writes[:0]
	if inline && fn != nil {
		fn()
	}
	if n := l.pending.Add(1); n == 1 || n >= int64(l.policy.GroupSize) {
		l.wakeFlusher()
	}
}

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
// Device, syncs, and fires completion acknowledgments in LSN order — an
// acknowledgment never outruns the durability of any earlier LSN, so the
// set of acknowledged transactions is always a dependency-closed prefix
// of the commit order.
//
// # Sync policies
//
//   - Off:   the log is inert. Engines skip capture and acknowledge at
//     pre-commit, exactly the paper's behaviour; the pipeline costs
//     nothing.
//   - Group(k, interval): acknowledgment fires after the record is
//     synced. With interval zero the flusher is self-clocked: a pass
//     starts the moment the previous one ends and anything is pending,
//     so the commits that arrive while pass N writes, syncs and
//     acknowledges are pass N+1's group — group size follows the
//     device's sync cost, no timer is armed, and k is unused. With a
//     positive interval the flusher instead holds each group open until
//     k commits are pending or interval has passed, whichever comes
//     first — fewer, larger syncs for a slow device or a sync-count
//     budget, at up to interval of added commit latency.
//
// Replay rebuilds a storage.DB from a (possibly torn) log image: it
// scans each segment until its first corruption, then applies the longest
// contiguous LSN prefix, which is exactly the committed-prefix guarantee
// the acknowledgment order establishes.
package wal

import (
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
	SyncGroup
)

// DefaultGroupSize is the GroupSize a policy left at zero gets.
const DefaultGroupSize = 64

// SyncPolicy is a log's durability discipline.
type SyncPolicy struct {
	Mode SyncMode
	// GroupSize is the pending-commit count that ends a fill window early
	// (default 64). Unused by a self-clocked Group (Interval zero).
	GroupSize int
	// Interval is the fill window: how long the flusher holds a group
	// open for more commits before it syncs anyway. Zero means no window
	// at all (self-clocked, see the package comment).
	Interval time.Duration
}

// Off returns the inert policy.
func Off() SyncPolicy { return SyncPolicy{Mode: SyncOff} }

// Group returns the group-commit policy: self-clocked when interval is
// zero, otherwise a fill window of interval that k pending commits end
// early (zero k means DefaultGroupSize).
func Group(k int, interval time.Duration) SyncPolicy {
	return SyncPolicy{Mode: SyncGroup, GroupSize: k, Interval: interval}
}

func (p SyncPolicy) withDefaults() SyncPolicy {
	if p.GroupSize <= 0 {
		p.GroupSize = DefaultGroupSize
	}
	if p.Interval < 0 {
		p.Interval = 0
	}
	return p
}

// String implements fmt.Stringer: "off", "group" for the self-clocked
// policy, "group(64,200µs)" for a windowed one.
func (p SyncPolicy) String() string {
	if p.Mode == SyncOff {
		return "off"
	}
	p = p.withDefaults()
	if p.Interval == 0 {
		return "group"
	}
	return fmt.Sprintf("group(%d,%v)", p.GroupSize, p.Interval)
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

// ack is one pending acknowledgment: fired by the flusher once the
// record's durability requirement is met. On a write commit lsn is the
// record's own LSN; on a read-only waiter it is the log tail the commit
// observed.
type ack struct {
	lsn   uint64
	enq   time.Time
	fn    func()
	stats *metrics.ThreadStats
}

// fire runs the acknowledgment, charging the flush stall to its thread.
func (k *ack) fire(now time.Time) {
	if k.stats != nil {
		k.stats.AddLog(now.Sub(k.enq))
	}
	if k.fn != nil {
		k.fn()
	}
}

// ackWindowSize is the initial size of the write-ack reorder window; it
// doubles whenever a stolen LSN lies further ahead of the frontier.
const ackWindowSize = 64

// Log is a redo log: a set of per-thread Appenders feeding one flusher
// goroutine that owns the Device. A nil *Log (or one opened with the Off
// policy) is inert: Enabled reports false and Drain/Close are no-ops, so
// engines hold a *Log unconditionally and pay a nil check when off.
type Log struct {
	dev    Device
	policy SyncPolicy

	// nextLSN is the last assigned LSN; durableLSN the acknowledged
	// frontier (every LSN ≤ durableLSN is synced and acked).
	nextLSN    atomic.Uint64
	durableLSN atomic.Uint64

	// pending counts commits enqueued but not yet stolen by the flusher —
	// the group-trigger gauge.
	pending atomic.Int64
	force   atomic.Bool // WaitDurable: run a pass now, window or not
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

	// flusher-owned. win is the write-ack reorder window: a power-of-two
	// ring in which slot lsn&(len(win)-1) holds the stolen ack of lsn, for
	// frontier < lsn ≤ frontier+len(win); an empty slot has lsn zero. LSNs
	// are dense — assigning one and queueing its ack share one appender
	// critical section — so a slot between the frontier and the highest
	// stolen LSN stays empty only while its record is being sealed, and
	// the window needs no more slots than there are unacknowledged
	// commits.
	win      []ack
	frontier uint64

	stRecords, stBytes, stFlushes, stSyncs atomic.Uint64
	stMaxFlush                             atomic.Uint64
}

// NewLog opens a log over dev with the given policy and starts its
// flusher. With the Off policy no flusher runs and dev may be nil.
func NewLog(dev Device, policy SyncPolicy) *Log {
	l := &Log{dev: dev, policy: policy.withDefaults(), win: make([]ack, ackWindowSize)}
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

// LastLSN returns the highest LSN assigned so far.
func (l *Log) LastLSN() uint64 { return l.nextLSN.Load() }

// DurableLSN returns the acknowledged frontier: every LSN up to and
// including it has been written and synced.
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
// flusher passes rather than waiting out group-fill windows. Drain sits
// on it. No-op when the log is disabled or lsn is already durable.
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

// enqueued counts one more commit waiting for the flusher and wakes it
// on the transitions it can be waiting for: the first pending commit
// (it may be idle) and, inside a fill window, the count that ends the
// window early.
func (l *Log) enqueued() {
	n := l.pending.Add(1)
	if n == 1 || (l.policy.Interval > 0 && n >= int64(l.policy.GroupSize)) {
		l.wakeFlusher()
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

// Sealed appends the contents of the device's sealed segments whose
// MaxLSN is above aboveLSN to dst; see Device.Sealed. The log must be
// enabled.
func (l *Log) Sealed(dst [][]byte, aboveLSN uint64) ([][]byte, error) {
	return l.dev.Sealed(dst, aboveLSN)
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
// then sweeps, writes, syncs and acknowledges. Self-clocked (Group with
// Interval zero) that is all: a pass runs whenever anything is pending,
// so the commits that arrived during one pass are the next pass's group
// and no timer is ever armed. With a fill window it first gives the
// group its interval to fill, unless the group-size trigger or a
// WaitDurable fires first. Wake tokens mean only "re-evaluate" — a stale
// token must not cut a group's fill window short, so every wake
// re-checks the actual trigger.
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
		if !l.force.Swap(false) && l.policy.Interval > 0 && l.pending.Load() < int64(l.policy.GroupSize) {
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

// stash files a stolen write ack in the reorder window, doubling the
// window until the ack's LSN fits above the frontier.
func (l *Log) stash(k ack) {
	for k.lsn-l.frontier > uint64(len(l.win)) {
		grown := make([]ack, 2*len(l.win))
		for _, old := range l.win {
			if old.lsn != 0 {
				grown[old.lsn&uint64(len(grown)-1)] = old
			}
		}
		l.win = grown
	}
	l.win[k.lsn&uint64(len(l.win)-1)] = k
}

// flushPass steals every appender's buffer and pending acks, writes the
// stolen bytes, syncs, and fires acknowledgments up to the
// contiguous-LSN frontier.
//
// Ordering contract. Write acks fire in LSN order, always: a stolen ack
// waits in the reorder window until every lower LSN has been stolen,
// written and synced too (a predecessor still being sealed by its
// appender arrives in a later pass and the frontier catches up), so an
// acknowledgment never outruns the durability of any earlier LSN. A
// read-only waiter fires once the frontier has reached the tail it
// observed, after this pass's write acks, so a reader is never
// acknowledged ahead of a writer it may depend on. Waiters of one
// appender fire in commit order from that appender's FIFO — the tails
// one thread observes are monotone, so the FIFO's head is always its
// least — and waiters of different appenders are unordered, as nothing
// relates them. The frontier is published (durableLSN) only after both
// loops, which is what lets Appender.CommitWith's inline read-only path
// trust it.
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
		a.buf, a.acks, a.waiters = a.spareBuf, a.spareAcks, a.spareWaiters
		a.spareBuf, a.spareAcks, a.spareWaiters = nil, nil, nil
		a.mu.Unlock()
		a.fifo = append(a.fifo, waiters...)
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
			l.stash(k)
		}
		// Recycle the stolen slices so steady state reuses two of each
		// per appender instead of allocating per flush.
		a.mu.Lock()
		a.spareBuf, a.spareAcks, a.spareWaiters = buf[:0], acks[:0], waiters[:0]
		a.mu.Unlock()
	}

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

	now := metrics.Now()
	for {
		k := &l.win[(l.frontier+1)&uint64(len(l.win)-1)]
		if k.lsn != l.frontier+1 {
			break
		}
		l.frontier++
		k.fire(now)
		*k = ack{}
	}
	for _, a := range apps {
		n := 0
		for n < len(a.fifo) && a.fifo[n].lsn <= l.frontier {
			a.fifo[n].fire(now)
			// After fn: the count is what keeps the appender's inline
			// read-only fast path off the state fn just wrote.
			a.roWaiters.Add(-1)
			n++
		}
		if n > 0 {
			rest := copy(a.fifo, a.fifo[n:])
			clear(a.fifo[rest:])
			a.fifo = a.fifo[:rest]
		}
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

	mu           sync.Mutex
	buf          []byte // encoded records awaiting the flusher
	acks         []ack
	waiters      []ack  // read-only commits awaiting the frontier
	spareBuf     []byte // recycled by the flusher after writing
	spareAcks    []ack
	spareWaiters []ack

	// fifo is flusher-owned: this appender's stolen read-only waiters,
	// oldest first, fired from the head as the frontier reaches the tail
	// each observed.
	fifo []ack
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
// run once the record is durable — in LSN order relative to every other
// commit: the flusher holds a stolen ack in its reorder window until
// every lower LSN is durable (see flushPass).
//
// A transaction with no captured writes (read-only) consumes no LSN, but
// it may still have observed another transaction's writes
// before they were synced (locks release at pre-commit), so it must not
// be acknowledged ahead of them: its acknowledgment waits for the log
// tail it observed — the current last assigned LSN — unless that tail is
// already durable and no earlier read-only commit of this appender is
// still waiting, in which case it fires inline. A waiting one queues on
// this appender's FIFO in the flusher, behind this thread's earlier
// waiters and never behind another thread's: the tails one thread
// observes only grow, so the FIFO fires in commit order.
//
// The inline path cannot race the flusher on this appender's stats:
// every earlier write commit of this appender has an LSN at or below the
// observed tail, so the flusher fired its acknowledgment before it
// published a durable frontier that far; an earlier read-only commit has
// no LSN of its own — it can sit unfired (still in the appender, or in
// the FIFO, because it was enqueued just after the pass that made its
// tail durable had swept this appender) while the frontier already
// covers it — so those are counted (roWaiters) and the fast path is
// taken only at zero.
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
// The same critical section assigns the LSN and queues its ack, so the
// LSNs the flusher has stolen are dense but for records still being
// sealed — which is what bounds its reorder window by the commits in
// flight. A commit with no captured writes has no LSN to stamp, so a
// non-nil install there panics — versioned writers always capture
// after-images.
//
//orthrus:hotpath
func (a *Appender) CommitWith(install func(lsn uint64), fn func()) {
	l := a.log
	if len(a.writes) == 0 {
		if install != nil {
			panic("wal: CommitWith install hook on a commit with no captured writes")
		}
		tail := l.nextLSN.Load()
		if tail <= l.durableLSN.Load() && a.roWaiters.Load() == 0 {
			if fn != nil {
				fn()
			}
			return
		}
		a.roWaiters.Add(1)
		a.mu.Lock()
		a.waiters = append(a.waiters, ack{lsn: tail, enq: metrics.Now(), fn: fn, stats: a.stats})
		a.mu.Unlock()
		l.enqueued()
		return
	}
	now := metrics.Now()
	a.mu.Lock()
	lsn := l.nextLSN.Add(1)
	a.buf = appendRecord(a.buf, lsn, a.writes)
	if install != nil {
		install(lsn)
	}
	a.acks = append(a.acks, ack{lsn: lsn, enq: now, fn: fn, stats: a.stats})
	a.mu.Unlock()
	a.writes = a.writes[:0]
	l.enqueued()
}

// Package metrics collects per-thread throughput counters and the
// execute/lock/wait wall-time breakdown reported in the paper's Figure 10.
//
// Each worker thread owns one cache-line-padded ThreadStats slot and
// updates it without synchronization; aggregation happens after the run.
// The three-way time classification follows the paper:
//
//   - Execute: running transaction logic against storage.
//   - Lock:    performing locking work (manipulating the lock table,
//     running deadlock-handler logic, building/sending lock messages).
//   - Wait:    blocked on a conflicting lock, or idle waiting for grants.
//
// A fourth component — Log — extends the paper's three-way split for the
// durable commit pipeline: the flush stall between a transaction's
// pre-commit WAL append and its group-commit acknowledgment. It is zero
// whenever durability is off, keeping the paper-faithful breakdown
// intact.
package metrics

import (
	"fmt"
	"time"
)

// ThreadStats is one worker thread's counters. Padded to its own cache
// lines so concurrent updates from different threads never false-share.
type ThreadStats struct {
	Committed uint64
	Aborted   uint64 // deadlock-handler aborts (each is later retried)
	Misses    uint64 // OLLP estimate misses (subset of restarts)
	Scanned   uint64 // rows delivered through Ctx.Scan (committed or not)
	PartLocks uint64 // partition locks taken by committed Partitioned-store transactions

	// MVCC snapshot-read counters (zero unless the database has
	// versioned tables and the workload marks transactions ReadOnly).
	SnapTxns     uint64 // read-only transactions served from a snapshot
	SnapRecords  uint64 // records resolved through version chains (reads + scan rows)
	SnapHops     uint64 // version-chain nodes traversed resolving them
	SnapStaleLSN uint64 // summed snapshot lag behind the log tail, in LSNs, at begin
	Installed    uint64 // committed after-images pushed onto version chains

	ExecNanos int64
	LockNanos int64
	WaitNanos int64
	// LogNanos is the durability flush stall: pre-commit append →
	// group-commit acknowledgment. Accrued by the WAL flusher goroutine
	// (never by the worker itself), so it is a separate field from the
	// worker-owned three above; the Go memory model keeps distinct fields
	// race-free, and the session's drain barrier orders the final writes
	// before aggregation.
	LogNanos int64

	// Latency records committed-transaction latency: first submission to
	// commit, retries included. AckLatency holds the same quantity for
	// commits acknowledged through the WAL, and only those acknowledgments
	// write it: they fire on the flusher goroutine (or inline, when the
	// appender has no earlier acknowledgment pending — wal.Appender.Commit),
	// so, like LogNanos, it is kept apart from what the worker records
	// inline. Totals merges the two.
	Latency    Histogram
	AckLatency Histogram

	// Padded to 128 bytes, not 64: the adjacent-line prefetcher pulls
	// cache lines in pairs, so neighbouring slots in a Set's slice would
	// still false-share across a single-line pad.
	_ [128]byte
}

// AddExec accrues execution time.
func (s *ThreadStats) AddExec(d time.Duration) { s.ExecNanos += int64(d) }

// AddLock accrues locking time.
func (s *ThreadStats) AddLock(d time.Duration) { s.LockNanos += int64(d) }

// AddWait accrues waiting time.
func (s *ThreadStats) AddWait(d time.Duration) { s.WaitNanos += int64(d) }

// AddLog accrues durability flush-stall time.
func (s *ThreadStats) AddLog(d time.Duration) { s.LogNanos += int64(d) }

// Set is a fixed group of per-thread slots.
type Set struct {
	threads []ThreadStats
}

// NewSet returns a Set with n thread slots.
func NewSet(n int) *Set { return &Set{threads: make([]ThreadStats, n)} }

// Thread returns thread i's slot.
func (s *Set) Thread(i int) *ThreadStats { return &s.threads[i] }

// Threads returns the slot count.
func (s *Set) Threads() int { return len(s.threads) }

// Totals aggregates all slots.
func (s *Set) Totals() Totals {
	var t Totals
	for i := range s.threads {
		th := &s.threads[i]
		t.Committed += th.Committed
		t.Aborted += th.Aborted
		t.Misses += th.Misses
		t.Scanned += th.Scanned
		t.PartLocks += th.PartLocks
		t.SnapTxns += th.SnapTxns
		t.SnapRecords += th.SnapRecords
		t.SnapHops += th.SnapHops
		t.SnapStaleLSN += th.SnapStaleLSN
		t.Installed += th.Installed
		t.Exec += time.Duration(th.ExecNanos)
		t.Lock += time.Duration(th.LockNanos)
		t.Wait += time.Duration(th.WaitNanos)
		t.Log += time.Duration(th.LogNanos)
		t.Latency.Merge(&th.Latency)
		t.Latency.Merge(&th.AckLatency)
	}
	return t
}

// Totals is an aggregate over threads.
type Totals struct {
	Committed    uint64
	Aborted      uint64
	Misses       uint64
	Scanned      uint64
	PartLocks    uint64
	SnapTxns     uint64
	SnapRecords  uint64
	SnapHops     uint64
	SnapStaleLSN uint64
	Installed    uint64
	Exec         time.Duration
	Lock         time.Duration
	Wait         time.Duration
	Log          time.Duration
	Latency      Histogram
}

// Breakdown returns the execute/lock/wait/log percentages of accounted
// time. Log is the durability flush stall, zero when the WAL is off —
// in which case the first three are exactly the paper's three-way split.
// All zeros when nothing was recorded.
func (t Totals) Breakdown() (execPct, lockPct, waitPct, logPct float64) {
	total := t.Exec + t.Lock + t.Wait + t.Log
	if total <= 0 {
		return 0, 0, 0, 0
	}
	f := 100 / float64(total)
	return float64(t.Exec) * f, float64(t.Lock) * f, float64(t.Wait) * f, float64(t.Log) * f
}

// AbortRate returns aborts per commit attempt.
func (t Totals) AbortRate() float64 {
	att := t.Committed + t.Aborted
	if att == 0 {
		return 0
	}
	return float64(t.Aborted) / float64(att)
}

// SnapStaleness returns the mean snapshot lag behind the log tail in
// LSNs across snapshot-served transactions, or 0 when none ran.
func (t Totals) SnapStaleness() float64 {
	if t.SnapTxns == 0 {
		return 0
	}
	return float64(t.SnapStaleLSN) / float64(t.SnapTxns)
}

// Result is the outcome of one timed engine run.
type Result struct {
	System   string
	Totals   Totals
	Duration time.Duration
}

// Throughput returns committed transactions per second.
func (r Result) Throughput() float64 {
	if r.Duration <= 0 {
		return 0
	}
	return float64(r.Totals.Committed) / r.Duration.Seconds()
}

// String implements fmt.Stringer with the harness's standard row format.
// The log column appears only when a durability flush stall was recorded,
// so WAL-off output is unchanged.
func (r Result) String() string {
	e, l, w, lg := r.Totals.Breakdown()
	s := fmt.Sprintf("%-22s %12.0f txns/s  commits=%-9d aborts=%-7d exec=%4.1f%% lock=%4.1f%% wait=%4.1f%%",
		r.System, r.Throughput(), r.Totals.Committed, r.Totals.Aborted, e, l, w)
	if r.Totals.Log > 0 {
		s += fmt.Sprintf(" log=%4.1f%%", lg)
	}
	if r.Totals.SnapTxns > 0 {
		s += fmt.Sprintf(" snap=%d", r.Totals.SnapTxns)
	}
	return s
}

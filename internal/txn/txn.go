// Package txn defines the transaction representation shared by every
// engine: a declared access set — record Ops plus range RangeOps, for the
// planned-access engines (ORTHRUS and Deadlock-free locking) — a logic
// closure executed against an engine-supplied access context (Ctx), and
// abort/retry bookkeeping. Ranges are protected against phantoms with
// stripe (gap) locks carved out of each table's lock namespace; see the
// stripe constants below.
//
// The same Txn value runs unmodified on every engine in the repository;
// only the Ctx implementation differs. Conventional 2PL ignores Ops and
// acquires locks lazily as Logic touches records; the planned engines
// acquire the locks named by Ops up front and then run Logic with locking
// already settled. This mirrors the paper's methodology of comparing all
// systems "within the same ORTHRUS transaction management codebase" (§4).
package txn

import (
	"errors"
	"fmt"
	"slices"
	"sort"
)

// Mode is a record access mode.
type Mode uint8

// Access modes. Write subsumes Read (read-modify-write acquires Write).
const (
	Read Mode = iota
	Write
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	if m == Read {
		return "R"
	}
	return "W"
}

// Conflicts reports whether two access modes on the same record conflict.
// Only Read/Read is compatible.
func (m Mode) Conflicts(o Mode) bool { return m == Write || o == Write }

// Op names one record in a transaction's declared access set.
type Op struct {
	Table int
	Key   uint64
	Mode  Mode
}

// Stripe (gap) locks.
//
// Range scans need protection not just for the records they read but for
// the *gaps* between them: a concurrent insert into a scanned range is a
// phantom. The lock space of every table is therefore extended with
// synthetic stripe keys — key bit 63 set, remaining bits the record key
// shifted down by StripeShift — so one stripe lock covers StripeSize
// adjacent record keys. A scan read-locks every stripe overlapping its
// range; an insert write-locks the stripe of its new key; the existing
// (table, key) lock machinery of every engine carries both without
// change. Record keys must stay below 1<<63 (asserted by ordered storage
// tables), so stripe keys can never collide with record keys, and within
// a table every record key sorts before every stripe key — the global
// lexicographic lock order stays total, preserving the Deadlock-free
// engine's ordered-acquisition argument.
const (
	// StripeShift is log2 of the stripe width.
	StripeShift = 6
	// StripeSize is the number of adjacent record keys one stripe lock
	// covers.
	StripeSize = 1 << StripeShift
	// StripeFlag marks a lock key as a stripe (gap) lock.
	StripeFlag uint64 = 1 << 63
)

// StripeKey returns the stripe lock key covering record key.
func StripeKey(key uint64) uint64 { return StripeFlag | key>>StripeShift }

// StripeSpan returns the first and last stripe lock keys covering the
// half-open record-key range [lo, hi). hi must be greater than lo.
func StripeSpan(lo, hi uint64) (first, last uint64) {
	return StripeKey(lo), StripeKey(hi - 1)
}

// RangeOp names one key range in a transaction's declared access set:
// the half-open interval [Lo, Hi) of table keys the transaction scans
// (Mode Read) or may insert into (Mode Write). Planned-access engines
// materialize declared ranges into stripe lock Ops before acquisition;
// conventional 2PL takes the equivalent stripe locks lazily inside
// Ctx.Scan and Ctx.Insert.
type RangeOp struct {
	Table  int
	Lo, Hi uint64
	Mode   Mode
}

// Empty reports whether the range covers no keys.
func (r RangeOp) Empty() bool { return r.Hi <= r.Lo }

// Contains reports whether key falls inside the range.
func (r RangeOp) Contains(key uint64) bool { return key >= r.Lo && key < r.Hi }

// String implements fmt.Stringer.
func (r RangeOp) String() string {
	return fmt.Sprintf("%s t%d/[%d,%d)", r.Mode, r.Table, r.Lo, r.Hi)
}

// String implements fmt.Stringer.
func (o Op) String() string { return fmt.Sprintf("%s t%d/%d", o.Mode, o.Table, o.Key) }

// Less orders ops by (table, key): the global lock order used by the
// Deadlock-free engine (paper §3.2 "lexicographical order").
func (o Op) Less(b Op) bool {
	if o.Table != b.Table {
		return o.Table < b.Table
	}
	return o.Key < b.Key
}

// ErrAborted is returned through Ctx accessors and Logic when the engine's
// deadlock handler chose this transaction as a victim. Engines undo the
// transaction's writes, release its locks and (by default) restart it.
var ErrAborted = errors.New("txn: aborted by deadlock handler")

// ErrEstimateMiss is returned when a planned-access engine discovers,
// mid-execution, that the transaction touched a record absent from its
// declared access set. Under OLLP the engine re-runs reconnaissance and
// restarts with the corrected estimate (paper §3.2).
var ErrEstimateMiss = errors.New("txn: access outside declared read/write set")

// Ctx is the engine-supplied access context Logic runs against. Accessors
// return ErrAborted when the transaction must abort; Logic must propagate
// that error immediately.
type Ctx interface {
	// Read returns the record payload for reading.
	Read(table int, key uint64) ([]byte, error)
	// Write returns the record payload for in-place modification. The
	// engine has recorded an undo image; mutations are rolled back if the
	// transaction subsequently aborts.
	Write(table int, key uint64) ([]byte, error)
	// Insert adds a new record. On scan-protected tables (ordered
	// growable storage) the engine holds the key's stripe lock in Write
	// mode across the insert, so a concurrent range scan covering the key
	// cannot observe a phantom; on other tables inserts bypass logical
	// locking (see internal/storage package comment).
	Insert(table int, key uint64, value []byte) error
	// Scan iterates the records of table with keys in the half-open range
	// [lo, hi) in ascending key order, invoking fn for each. The engine
	// guarantees the iteration is phantom-safe on scan-protected tables:
	// every covering stripe is read-locked before the first callback, so
	// no insert can add a key to the range until the transaction ends.
	// fn must treat rec as read-only; a non-nil error from fn stops the
	// iteration and is returned. Scanning a range the transaction later
	// inserts into is unsupported under conventional 2PL (read→write
	// stripe upgrade).
	Scan(table int, lo, hi uint64, fn func(key uint64, rec []byte) error) error
}

// Logic is a transaction body. It may be re-executed after aborts, so it
// must be deterministic given the same Ctx responses and must not carry
// side effects outside the Ctx.
type Logic func(ctx Ctx) error

// Txn is one transaction instance.
type Txn struct {
	// ID is assigned by the engine; unique within a run.
	ID uint64
	// Ops is the declared access set used by planned-access engines.
	// Conventional 2PL ignores it.
	Ops []Op
	// Ranges is the declared range-access set: key intervals the
	// transaction scans (Read) or may insert into (Write). Planned
	// engines materialize each range into stripe lock Ops
	// (engine.MaterializeRanges); Partitioned-store folds every key a
	// range covers into the partition footprint. Conventional 2PL
	// ignores it (stripe locks are taken lazily).
	Ranges []RangeOp
	// Logic is the transaction body.
	Logic Logic
	// Partitions optionally pre-computes the set of home partitions the
	// transaction touches (used by Partitioned-store and by ORTHRUS's
	// partition-locality experiment configurations). When nil, engines
	// derive it from Ops.
	Partitions []int
	// Restarts counts aborts-and-retries suffered so far.
	Restarts int
	// Replan re-runs OLLP reconnaissance after an estimate miss,
	// rebuilding Ops (and Logic, if it captured planned keys). Engines
	// call it when an access returns ErrEstimateMiss. Nil for
	// transactions whose access sets are exact by construction — a
	// contract the planned engines rely on: with Replan nil an estimate
	// miss (or any other Logic error) panics, so they keep no
	// before-images for the attempt and cannot roll it back.
	Replan func(*Txn)
	// ReadOnly declares the transaction write-free. Engines whose
	// database has versioned tables serve it from an immutable MVCC
	// snapshot — zero locks, zero CC messages, no gap locks (see
	// internal/engine Snapshots); engines without versioned tables fall
	// back to the ordinary locking path, so the flag is always safe to
	// set on a transaction that performs no writes. Declared Ops/Ranges
	// are ignored on the snapshot path (the snapshot is immutable, so no
	// footprint is needed) but should still describe the reads for the
	// locking fallback.
	ReadOnly bool
	// Free, when non-nil, recycles the transaction into its producer's
	// pool. The engine calls it exactly once, after the completion
	// callback and every other observer (WAL commit ack, CC release
	// processing, metrics recording) is finished with the transaction —
	// the //orthrus:recycle ownership-transfer convention. After Free
	// returns, the producer may hand the same *Txn to another caller, so
	// no engine structure may retain it (or alias its slices). Producers
	// that do not pool leave Free nil and rely on the GC.
	Free func()

	// engine scratch, reset by engines between runs
	TS uint64 // wait-die timestamp
}

// SortOps sorts the declared access set into the global lock order and
// removes duplicate (table,key) entries, widening Read to Write when both
// appear. Planned engines call this once before first execution.
func (t *Txn) SortOps() {
	if len(t.Ops) < 2 {
		return
	}
	// slices.SortFunc with a capture-free comparator: unlike sort.Slice
	// (whose interface value and closure escape), this compiles to a
	// static call and keeps the hot path allocation-free.
	slices.SortFunc(t.Ops, func(a, b Op) int {
		if a.Less(b) {
			return -1
		}
		if b.Less(a) {
			return 1
		}
		return 0
	})
	out := t.Ops[:1]
	for _, op := range t.Ops[1:] {
		last := &out[len(out)-1]
		if op.Table == last.Table && op.Key == last.Key {
			if op.Mode == Write {
				last.Mode = Write
			}
			continue
		}
		out = append(out, op)
	}
	t.Ops = out
}

// Declared reports whether (table,key) appears in Ops with a mode at least
// as strong as mode.
func (t *Txn) Declared(table int, key uint64, mode Mode) bool {
	i := sort.Search(len(t.Ops), func(i int) bool {
		return !t.Ops[i].Less(Op{Table: table, Key: key})
	})
	if i >= len(t.Ops) {
		return false
	}
	op := t.Ops[i]
	if op.Table != table || op.Key != key {
		return false
	}
	return op.Mode == Write || mode == Read
}

// DeclaredRange reports whether a single declared range covers the whole
// half-open interval [lo, hi) of table with a mode at least as strong as
// mode. The range set is small (a handful per transaction), so the check
// is a linear pass.
func (t *Txn) DeclaredRange(table int, lo, hi uint64, mode Mode) bool {
	for _, r := range t.Ranges {
		if r.Table != table || r.Lo > lo || r.Hi < hi {
			continue
		}
		if r.Mode == Write || mode == Read {
			return true
		}
	}
	return false
}

// ResetScratch clears engine scratch fields before a (re)run.
func (t *Txn) ResetScratch() {
	t.TS = 0
}

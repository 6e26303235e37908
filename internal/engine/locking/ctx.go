package locking

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/engine"
	"repro/internal/lock"
	"repro/internal/txn"
)

// The worker is the txn.Ctx of the first-touch and partition footprints:
// both read and write the live records in place. Under first touch each
// accessor locks its record on first access and a write keeps its undo
// image, since the handler may abort the attempt; under a partition
// footprint the partition locks already serialize every access, so there
// is nothing to lock, undo or abort. Either way a non-nil Wal appender
// captures the redo write set.

// acquire returns the live record for an in-place access. Under first
// touch it locks (table, key) first, unless this attempt already holds it
// in a sufficient mode.
func (w *worker) acquire(table int, key uint64, mode txn.Mode) ([]byte, error) {
	if w.eng.fp != firstTouch {
		return w.DB.Table(table).Get(key), nil
	}
	if r := w.heldReq(table, key); r != nil {
		if r.Mode == txn.Read && mode == txn.Write {
			// Lock upgrades are deadlock bait and unnecessary for the
			// paper's workloads: writers must declare Write on first touch.
			return nil, fmt.Errorf("locking: unsupported read→write upgrade on t%d/%d", table, key)
		}
		return w.DB.Table(table).Get(key), nil
	}
	start := time.Now()
	r := w.request()
	waited, err := w.eng.table.Acquire(r, table, key, mode)
	w.waited += waited
	w.locked += time.Since(start) - waited
	if err != nil {
		w.held = w.held[:len(w.held)-1]
		w.fl.Put(r)
		return nil, err
	}
	return w.DB.Table(table).Get(key), nil
}

// heldReq returns this attempt's request for (table, key), if any.
func (w *worker) heldReq(table int, key uint64) *lock.Request {
	for _, r := range w.held {
		if r.Table == table && r.Key == key {
			return r
		}
	}
	return nil
}

// Read implements txn.Ctx.
func (w *worker) Read(table int, key uint64) ([]byte, error) {
	return w.acquire(table, key, txn.Read)
}

// Write implements txn.Ctx. A missing record (possible only on growable
// tables, e.g. Delivery write-locking an order a raced NewOrder has not
// published) yields nil — with the lock held under first touch — and
// nothing is noted for redo: there is no after-image to replay.
func (w *worker) Write(table int, key uint64) ([]byte, error) {
	rec, err := w.acquire(table, key, txn.Write)
	if err != nil || rec == nil {
		return nil, err
	}
	if w.eng.fp == firstTouch {
		w.Undo.Record(rec)
	}
	if w.Wal != nil {
		w.Wal.Note(table, key, rec)
	}
	w.VSet.Note(table, key)
	return rec, nil
}

// Insert implements txn.Ctx. Under first touch on a scan-protected table
// the key's stripe lock is acquired in Write mode first — the dynamic-2PL
// form of next-key locking: the insert conflicts with any concurrent scan
// whose range covers the key, and the stripe is held to commit like every
// other lock.
func (w *worker) Insert(table int, key uint64, value []byte) error {
	if w.VSet.Versioned(table) != nil {
		panic("locking: in-transaction Insert on a versioned table (versioned layouts are fixed-size and load-populated)")
	}
	if w.eng.fp == firstTouch && w.DB.Table(table).ScanProtected() {
		if _, err := w.acquire(table, txn.StripeKey(key), txn.Write); err != nil {
			return err
		}
	}
	if err := engine.Insert(w.DB, table, key, value); err != nil {
		return err
	}
	if w.Wal != nil {
		w.Wal.Note(table, key, w.DB.Table(table).Get(key))
	}
	return nil
}

// Scan implements txn.Ctx.
//
// Under first touch the scan locks lazily, like every other access. On a
// scan-protected table it first read-locks each stripe covering [lo, hi) —
// freezing the range's key population against inserts — then walks the
// ordered storage, read-locking each record before yielding it. Records
// scanned in Read mode cannot later be written by the same transaction
// (the upgrade guard in acquire).
//
// Under a partition footprint phantom safety is the footprint itself:
// PartitionSet folds the partition of every key a declared range covers —
// present or not — into the lock set, so any transaction that could
// insert into the scanned range shares a partition lock with this one and
// is fully serialized against it. The scan is then a plain ordered walk.
// The guard asserts exactly that condition — every key in [lo, hi) maps
// to a held partition — rather than requiring the executed range to equal
// a declared one: OLLP-style transactions (StockLevel) legitimately
// recompute their range from rows read under the partition locks, and
// under an entity-aligned partitioner the drifted range still lands on
// the same partitions. A range that escapes the footprint is
// phantom-prone, so it panics rather than silently returning racy
// results.
func (w *worker) Scan(table int, lo, hi uint64, fn func(key uint64, rec []byte) error) error {
	if hi <= lo {
		return nil
	}
	lazy := w.eng.fp == firstTouch
	tbl := w.DB.Table(table)
	if !lazy {
		for key := lo; key < hi; key++ {
			if p := w.eng.cfg.Partition(table, key); !containsInt(w.parts, p) {
				panic(fmt.Sprintf("locking: Scan range t%d/[%d,%d) touches partition %d outside the transaction's footprint %v (declare a covering RangeOp)", table, lo, hi, p, w.parts))
			}
		}
	} else if tbl.ScanProtected() {
		first, last := txn.StripeSpan(lo, hi)
		for s := first; s <= last; s++ {
			if _, err := w.acquire(table, s, txn.Read); err != nil {
				return err
			}
		}
	}
	var err error
	tbl.Scan(lo, hi, func(key uint64, rec []byte) bool {
		if lazy {
			// The stripe-then-record inversion below is deliberate: dynamic
			// 2PL acquires lazily in touch order, so this is the same
			// wait-for edge any lazy acquisition can create, and the
			// configured deadlock handler (wait-die or detection) resolves
			// it.
			//orthrus:allow(lockorder) lazy 2PL acquires in touch order; the deadlock handler resolves inversions
			if _, err = w.acquire(table, key, txn.Read); err != nil {
				return false
			}
		}
		w.Stats.Scanned++
		err = fn(key, rec)
		return err == nil
	})
	return err
}

// containsInt reports whether sorted slice s contains v.
func containsInt(s []int, v int) bool {
	i := sort.SearchInts(s, v)
	return i < len(s) && s[i] == v
}

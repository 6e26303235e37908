package engine

import (
	"repro/internal/metrics"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/wal"
)

// PlannedCtx is the txn.Ctx used by the planned-access engines (ORTHRUS
// and Deadlock-free locking): every lock was acquired before Logic runs,
// so accessors only validate the access against the declared set. An
// access outside the declared set returns txn.ErrEstimateMiss — the OLLP
// signal that the reconnaissance estimate was wrong and the transaction
// must be re-planned (paper §3.2). That re-plan is the only rollback a
// planned engine performs, so before-images are kept only for attempts
// that can take it (T.Replan != nil); an exact-set transaction's logic
// error panics in the engine and nothing would ever read its images.
//
// Range scans follow the same discipline: Scan validates that the range
// was declared (so its covering stripe locks are held) and that every
// record the ordered storage yields was individually declared (so its
// record lock is held). A key the reconnaissance did not see — an insert
// that committed between planning and lock acquisition — surfaces as an
// estimate miss and the transaction re-plans, exactly like a stale
// secondary-index read.
//
// When Wal is set, accessors also capture the redo write set: each
// written or inserted record is noted on the appender, so the engine can
// seal a redo record at pre-commit with Wal.Commit. Abort discards the
// capture along with the undo images.
type PlannedCtx struct {
	DB    *storage.DB
	T     *txn.Txn
	Undo  UndoLog
	Wal   *wal.Appender        // redo capture; nil when durability is off
	Stats *metrics.ThreadStats // scan-row accounting; may be nil (tests)
	// VSet is Snapshots.VersionSet(): writes to versioned tables are noted
	// in it so the engine can install their after-images at pre-commit
	// (CommitVersions). The zero value suits a database that has none.
	VSet VersionSet
	undo bool // this attempt can roll back: T.Replan != nil, set by Begin
	sink byte // what Fetch loaded, kept so the loads stay
}

// Begin attaches the context to a transaction attempt.
func (c *PlannedCtx) Begin(t *txn.Txn) {
	c.T = t
	c.undo = t.Replan != nil
	c.Undo.Reset()
	c.VSet.Reset()
	if c.Wal != nil {
		c.Wal.Abort() // drop any capture a panicked/failed attempt left
	}
}

// Fetch loads every declared record — its first and last byte — back
// to back, before Logic runs, so that the records' cache misses overlap
// instead of being paid one op at a time inside Logic: the declared
// access set (paper §3.2) doubles as a fetch list, as Calvin's does. It
// reads records without a lock of its own, so it may run only once the
// whole footprint is held and no other transaction can write them: after
// ORTHRUS's grant, after the locking engine's ordered acquisition. It
// covers fixed tables and a versioned table's in-place rows, and skips
// growable tables, whose Get takes a shard mutex; stripe keys are out of
// every fixed table's range, so Get returns nil for them.
func (c *PlannedCtx) Fetch() {
	sink := c.sink
	for _, op := range c.T.Ops {
		var rec []byte
		switch t := c.DB.Table(op.Table).(type) {
		case *storage.FixedTable:
			rec = t.Get(op.Key)
		case *storage.VersionedTable:
			rec = t.Get(op.Key)
		}
		if rec != nil {
			sink ^= rec[0] ^ rec[len(rec)-1]
		}
	}
	c.sink = sink
}

// Read implements txn.Ctx.
func (c *PlannedCtx) Read(table int, key uint64) ([]byte, error) {
	if !c.T.Declared(table, key, txn.Read) {
		return nil, txn.ErrEstimateMiss
	}
	return c.DB.Table(table).Get(key), nil
}

// Write implements txn.Ctx. A missing record yields nil with nothing
// recorded — no before-image to undo, no after-image to replay.
func (c *PlannedCtx) Write(table int, key uint64) ([]byte, error) {
	if !c.T.Declared(table, key, txn.Write) {
		return nil, txn.ErrEstimateMiss
	}
	rec := c.DB.Table(table).Get(key)
	if rec == nil {
		return nil, nil
	}
	if c.undo {
		c.Undo.Record(rec)
	}
	if c.Wal != nil {
		c.Wal.Note(table, key, rec)
	}
	c.VSet.Note(table, key)
	return rec, nil
}

// Insert implements txn.Ctx. On a scan-protected table the insert is
// phantom-fenced: the key's stripe lock must have been declared in Write
// mode (and is therefore held), else the plan's key estimate drifted past
// its declared stripes and the transaction must re-plan. The redo note
// references the table's own copy of the value, so the caller may reuse
// its buffer immediately.
func (c *PlannedCtx) Insert(table int, key uint64, value []byte) error {
	if c.VSet.Versioned(table) != nil {
		panic("engine: in-transaction Insert on a versioned table (versioned layouts are fixed-size and load-populated)")
	}
	if c.DB.Table(table).ScanProtected() && !c.T.Declared(table, txn.StripeKey(key), txn.Write) {
		return txn.ErrEstimateMiss
	}
	if err := Insert(c.DB, table, key, value); err != nil {
		return err
	}
	if c.Wal != nil {
		c.Wal.Note(table, key, c.DB.Table(table).Get(key))
	}
	return nil
}

// Scan implements txn.Ctx. The whole range must have been declared (its
// stripe locks are then held, freezing the key population on protected
// tables) and every yielded record must be individually declared (its
// record lock is then held); either check failing is an OLLP estimate
// miss.
func (c *PlannedCtx) Scan(table int, lo, hi uint64, fn func(key uint64, rec []byte) error) error {
	if hi <= lo {
		return nil
	}
	if !c.T.DeclaredRange(table, lo, hi, txn.Read) {
		return txn.ErrEstimateMiss
	}
	var err error
	c.DB.Table(table).Scan(lo, hi, func(key uint64, rec []byte) bool {
		if !c.T.Declared(table, key, txn.Read) {
			err = txn.ErrEstimateMiss
			return false
		}
		if c.Stats != nil {
			c.Stats.Scanned++
		}
		err = fn(key, rec)
		return err == nil
	})
	return err
}

// Commit discards undo state. The redo capture stays: the engine seals it
// with Wal.Commit at pre-commit, while the transaction still holds its
// locks.
func (c *PlannedCtx) Commit() { c.Undo.Reset() }

// Abort rolls back a re-plannable attempt's in-place writes (no other
// keeps images) and discards the redo capture and noted version installs.
func (c *PlannedCtx) Abort() {
	c.Undo.Rollback()
	c.VSet.Reset()
	if c.Wal != nil {
		c.Wal.Abort()
	}
}

package workload

import (
	"math/rand"
	"sync"

	"repro/internal/txn"
)

// Transfer generates bank-style transfer transactions: each moves one unit
// from a source record to a destination record. The sum of all record
// balances is invariant under any serializable execution, so Transfer is
// the conservation workload the test suite uses to property-check every
// engine's isolation (a lost update or dirty write breaks the sum; a
// partially-applied abort breaks it too).
type Transfer struct {
	Table      int
	NumRecords uint64
	// HotRecords optionally concentrates transfers on a small prefix to
	// force conflicts and deadlocks; 0 means uniform.
	HotRecords uint64
}

// transferTxn is the pooled carrier for one transfer transaction: the Txn,
// its two-op access set, and the logic's parameters live in one recycled
// allocation. Logic and Free are method values bound once when the pool
// creates the container, so a steady-state Next performs zero allocations.
type transferTxn struct {
	txn.Txn
	table int
	a, b  uint64
	ops   [2]txn.Op
}

var transferPool sync.Pool

func init() {
	// Assigned in init, not a composite literal: New references methods
	// that reference the pool back (an initialization cycle at package
	// scope).
	transferPool.New = func() interface{} {
		t := &transferTxn{}
		t.Logic = t.run
		t.Free = t.free
		return t
	}
}

func (t *transferTxn) run(ctx txn.Ctx) error {
	src, err := ctx.Write(t.table, t.a)
	if err != nil {
		return err
	}
	dst, err := ctx.Write(t.table, t.b)
	if err != nil {
		return err
	}
	putU64(src, getU64(src)-1)
	putU64(dst, getU64(dst)+1)
	return nil
}

// free implements txn.Txn.Free: the engine has already run the completion
// callback and every other observer, so the container can be recycled.
//
// Pool ownership: engine calls Free exactly once, after the last observer of the transaction.
func (t *transferTxn) free() {
	t.ID = 0
	t.Restarts = 0
	t.ReadOnly = false
	t.Partitions = t.Partitions[:0]
	t.ResetScratch()
	transferPool.Put(t)
}

// Next implements Source.
func (c *Transfer) Next(_ int, rng *rand.Rand) *txn.Txn {
	n := c.NumRecords
	if c.HotRecords > 0 {
		n = c.HotRecords
	}
	if n < 2 {
		panic("workload: Transfer needs at least 2 records")
	}
	a := uint64(rng.Int63n(int64(n)))
	b := uint64(rng.Int63n(int64(n - 1)))
	if b >= a {
		b++
	}
	t := transferPool.Get().(*transferTxn)
	t.table, t.a, t.b = c.Table, a, b
	t.ops[0] = txn.Op{Table: c.Table, Key: a, Mode: txn.Write}
	t.ops[1] = txn.Op{Table: c.Table, Key: b, Mode: txn.Write}
	t.Ops = t.ops[:2]
	return &t.Txn
}

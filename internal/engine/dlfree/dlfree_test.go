package dlfree

import (
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/workload"
)

func newDB(n uint64) (*storage.DB, int) {
	db := storage.NewDB()
	id := db.Create(storage.Layout{Name: "main", NumRecords: n, RecordSize: 64})
	return db, id
}

func sumTable(db *storage.DB, tbl int, n uint64) uint64 {
	var sum uint64
	for k := uint64(0); k < n; k++ {
		sum += storage.GetU64(db.Table(tbl).Get(k), 0)
	}
	return sum
}

func TestTransferConservation(t *testing.T) {
	const threads, records = 4, 8
	db, tbl := newDB(records)
	for k := uint64(0); k < records; k++ {
		storage.PutU64(db.Table(tbl).Get(k), 0, 1000)
	}
	eng := New(Config{DB: db, Threads: threads})
	src := &workload.Transfer{Table: tbl, NumRecords: records}
	res := eng.Run(src, 150*time.Millisecond)
	if res.Totals.Committed == 0 {
		t.Fatal("no commits")
	}
	if res.Totals.Aborted != 0 {
		t.Fatalf("deadlock-free engine aborted %d txns", res.Totals.Aborted)
	}
	if got := sumTable(db, tbl, records); got != records*1000 {
		t.Fatalf("sum = %d, want %d", got, records*1000)
	}
}

// Exact-access-set workloads must complete with zero aborts: ordered
// acquisition removes deadlocks and the Block handler never dies.
func TestHighContentionZeroAborts(t *testing.T) {
	const threads, records = 4, 64
	db, tbl := newDB(records)
	eng := New(Config{DB: db, Threads: threads})
	src := &workload.YCSB{Table: tbl, NumRecords: records, OpsPerTxn: 4, HotRecords: 4, HotOps: 2}
	res := eng.Run(src, 150*time.Millisecond)
	if res.Totals.Committed == 0 {
		t.Fatal("no commits")
	}
	if res.Totals.Aborted != 0 {
		t.Fatalf("aborts = %d, want 0", res.Totals.Aborted)
	}
	want := res.Totals.Committed * 4
	if got := sumTable(db, tbl, records); got != want {
		t.Fatalf("increments = %d, want %d", got, want)
	}
}

// workloadFunc adapts a plain constructor to workload.Source.
type workloadFunc func() *txn.Txn

func (f workloadFunc) Next(int, *rand.Rand) *txn.Txn { return f() }

// estimateMissSource emits transactions whose first plan is deliberately
// wrong; Replan fixes them. Exercises the OLLP miss path end to end.
type estimateMissSource struct {
	table  int
	misses atomic.Int64
}

func (s *estimateMissSource) next() *txn.Txn {
	t := &txn.Txn{Ops: []txn.Op{{Table: s.table, Key: 0, Mode: txn.Write}}}
	planned := uint64(0) // wrong: logic wants key 1
	t.Logic = func(ctx txn.Ctx) error {
		rec, err := ctx.Write(s.table, 1)
		if err != nil {
			return err
		}
		storage.PutU64(rec, 0, storage.GetU64(rec, 0)+1)
		_ = planned
		return nil
	}
	t.Replan = func(t *txn.Txn) {
		s.misses.Add(1)
		t.Ops = []txn.Op{{Table: s.table, Key: 1, Mode: txn.Write}}
	}
	return t
}

func TestOLLPEstimateMissReplans(t *testing.T) {
	db, tbl := newDB(4)
	eng := New(Config{DB: db, Threads: 1})
	s := &estimateMissSource{table: tbl}

	// Run one transaction through the worker loop manually: build it, let
	// the engine's Run drive it via a tiny adapter source.
	src := workloadFunc(func() *txn.Txn { return s.next() })
	res := eng.Run(src, 30*time.Millisecond)
	if res.Totals.Committed == 0 {
		t.Fatal("no commits")
	}
	if res.Totals.Misses == 0 || s.misses.Load() == 0 {
		t.Fatal("estimate misses not recorded")
	}
	// Every commit wrote key 1 exactly once (after replanning).
	if got := storage.GetU64(db.Table(tbl).Get(1), 0); got != res.Totals.Committed {
		t.Fatalf("key1 = %d, want %d", got, res.Totals.Committed)
	}
	if got := storage.GetU64(db.Table(tbl).Get(0), 0); got != 0 {
		t.Fatalf("key0 modified: %d", got)
	}
}

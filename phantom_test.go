package repro_test

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro"
)

// Phantom regression: concurrent inserts during range scans, on all four
// engines, under -race.
//
// Writers insert *pairs* of adjacent records carrying +v and -v in one
// transaction; scanners sum a range covering every pair through Ctx.Scan.
// Serializability demands each scan observe every pair entirely or not at
// all, so every committed scan must see sum == 0 and an even record
// count. The retired bypass path — iterating the growable table's storage
// directly, with no declared range — has no such guarantee: a scan can
// slip between the two inserts of one pair and observe a half-inserted
// transaction (a phantom), which is exactly what this test's assertion
// would catch. On the Ctx.Scan path the range's stripe locks (or, on
// Partitioned-store, the range's partition footprint) serialize scans
// against inserts, and the assertion must never fire.

const (
	phantomPairs    = 48 // pairs inserted per engine run
	phantomSpan     = 2 * phantomPairs
	phantomScanners = 2
	phantomScans    = 15 // scans per scanner goroutine
)

// phantomInsertTxn inserts the pair (2i, 2i+1) holding +v / -v, declaring
// the two keys as a Write range so planned engines fence the insert with
// stripe locks and Partitioned-store folds it into the partition set. A
// busy loop between the two inserts models per-record processing cost
// (like workload.YCSB.WorkPerOp) — it widens the half-inserted window so
// an unprotected scan reliably lands inside it, while the protected path
// must stay atomic regardless.
func phantomInsertTxn(tbl int, i int) *repro.Txn {
	k, v := uint64(2*i), int64(i+1)
	t := &repro.Txn{Ranges: []repro.RangeOp{{Table: tbl, Lo: k, Hi: k + 2, Mode: repro.Write}}}
	t.Logic = func(ctx repro.Ctx) error {
		var buf [16]byte
		repro.PutI64(buf[:], 0, v)
		if err := ctx.Insert(tbl, k, buf[:]); err != nil {
			return err
		}
		var sink uint64
		for j := 0; j < 20000; j++ {
			sink += uint64(j)
		}
		if sink == ^uint64(0) {
			return nil // defeat dead-code elimination
		}
		repro.PutI64(buf[:], 0, -v)
		return ctx.Insert(tbl, k+1, buf[:])
	}
	return t
}

// phantomScanTxn scans [0, phantomSpan) and counts a violation when the
// committed view is not pair-atomic. The record set of a growable table
// is deducible only by reading it, so the plan is OLLP reconnaissance:
// enumerate the present keys (validated against the gap version), declare
// them plus the covering range, and let a stale estimate surface as a
// miss-and-replan at execution.
func phantomScanTxn(db *repro.DB, tbl int, violations *atomic.Int64) *repro.Txn {
	t := &repro.Txn{}
	plan := func(t *repro.Txn) {
		t.Ops, t.Ranges = t.Ops[:0], t.Ranges[:0]
		tab := db.Table(tbl)
		for {
			v := tab.RangeVersion(0, phantomSpan)
			n := len(t.Ops)
			tab.Scan(0, phantomSpan, func(key uint64, _ []byte) bool {
				t.Ops = append(t.Ops, repro.Op{Table: tbl, Key: key, Mode: repro.Read})
				return true
			})
			if tab.RangeVersion(0, phantomSpan) == v {
				break
			}
			t.Ops = t.Ops[:n] // inserts raced the enumeration; redo
		}
		t.Ranges = append(t.Ranges, repro.RangeOp{Table: tbl, Lo: 0, Hi: phantomSpan, Mode: repro.Read})
	}
	plan(t)
	t.Replan = plan

	t.Logic = func(ctx repro.Ctx) error {
		var sum int64
		count := 0
		if err := ctx.Scan(tbl, 0, phantomSpan, func(_ uint64, rec []byte) error {
			sum += repro.GetI64(rec, 0)
			count++
			return nil
		}); err != nil {
			return err
		}
		if sum != 0 || count%2 != 0 {
			violations.Add(1)
		}
		return nil
	}
	return t
}

func TestPhantomSafeScansAllEngines(t *testing.T) {
	cases := []struct {
		name  string
		build func(db *repro.DB) repro.Runtime
	}{
		{"2pl-waitdie", func(db *repro.DB) repro.Runtime {
			return repro.NewTwoPL(repro.LockingConfig{DB: db, Handler: repro.WaitDie(), Threads: 4})
		}},
		{"dlfree", func(db *repro.DB) repro.Runtime {
			return repro.NewDeadlockFree(repro.LockingConfig{DB: db, Threads: 4})
		}},
		{"partstore", func(db *repro.DB) repro.Runtime {
			return repro.NewPartitionedStore(repro.LockingConfig{DB: db, Partitions: 4})
		}},
		{"orthrus", func(db *repro.DB) repro.Runtime {
			return repro.NewOrthrus(repro.OrthrusConfig{DB: db, CCThreads: 2, ExecThreads: 2})
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			db := repro.NewDB()
			tbl := db.Create(repro.Layout{
				Name: "ledger", NumRecords: phantomSpan, RecordSize: 16,
				Growable: true, Ordered: true,
			})
			eng := tc.build(db)
			ses := eng.Start()
			var violations atomic.Int64
			var wg sync.WaitGroup
			// Four writers, interleaved with scanners, each pair atomic.
			for w := 0; w < 4; w++ {
				w := w
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := w; i < phantomPairs; i += 4 {
						ses.Submit(phantomInsertTxn(tbl, i), nil)
					}
				}()
			}
			for sc := 0; sc < phantomScanners; sc++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < phantomScans; i++ {
						ses.Submit(phantomScanTxn(db, tbl, &violations), nil)
					}
				}()
			}
			wg.Wait()
			ses.Drain()
			ses.Close()

			if n := violations.Load(); n != 0 {
				t.Fatalf("%d scans observed a phantom (half-inserted pair)", n)
			}
			if got := db.Table(tbl).Len(); got != phantomSpan {
				t.Fatalf("table holds %d records, want %d", got, phantomSpan)
			}
			// Final sweep: the quiesced table must also conserve the sum.
			var sum int64
			db.Table(tbl).Scan(0, phantomSpan, func(_ uint64, rec []byte) bool {
				sum += repro.GetI64(rec, 0)
				return true
			})
			if sum != 0 {
				t.Fatalf("final sum = %d, want 0", sum)
			}
		})
	}
}

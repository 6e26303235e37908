package repro_test

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/workload"
)

// These tests exercise the library through the public facade where it
// has the name, the same surface the examples use, and through the
// internal packages for everything the examples do not need.

func newAccountDB(t testing.TB, n uint64, balance int64) (*repro.DB, int) {
	t.Helper()
	db := repro.NewDB()
	tbl := db.Create(repro.Layout{Name: "accounts", NumRecords: n, RecordSize: 64})
	for k := uint64(0); k < n; k++ {
		repro.PutI64(db.Table(tbl).Get(k), 0, balance)
	}
	return db, tbl
}

func sumBalances(db *repro.DB, tbl int, n uint64) int64 {
	var sum int64
	for k := uint64(0); k < n; k++ {
		sum += repro.GetI64(db.Table(tbl).Get(k), 0)
	}
	return sum
}

// allEngines builds the complete system lineup against a fresh database
// each, plus the matching table id.
func allEngines(t testing.TB) []struct {
	eng repro.Engine
	db  *repro.DB
	tbl int
} {
	t.Helper()
	const n, threads = 64, 4
	type entry = struct {
		eng repro.Engine
		db  *repro.DB
		tbl int
	}
	var out []entry
	build := func(f func(db *repro.DB) repro.Engine) {
		db, tbl := newAccountDB(t, n, 1000)
		out = append(out, entry{f(db), db, tbl})
	}
	build(func(db *repro.DB) repro.Engine {
		return repro.NewOrthrus(repro.OrthrusConfig{DB: db, CCThreads: 2, ExecThreads: 2})
	})
	build(func(db *repro.DB) repro.Engine {
		return repro.NewDeadlockFree(repro.LockingConfig{DB: db, Threads: threads})
	})
	build(func(db *repro.DB) repro.Engine {
		return repro.NewTwoPL(repro.LockingConfig{DB: db, Handler: repro.WaitDie(), Threads: threads})
	})
	build(func(db *repro.DB) repro.Engine {
		return repro.NewTwoPL(repro.LockingConfig{DB: db, Handler: repro.WaitForGraph(threads), Threads: threads})
	})
	build(func(db *repro.DB) repro.Engine {
		return repro.NewTwoPL(repro.LockingConfig{DB: db, Handler: repro.Dreadlocks(threads), Threads: threads})
	})
	build(func(db *repro.DB) repro.Engine {
		return repro.NewPartitionedStore(repro.LockingConfig{DB: db, Partitions: threads})
	})
	return out
}

// Every engine, via the public API, conserves balances under contended
// transfers: the repository's one-line statement of serializable isolation.
func TestPublicAPIConservationOnAllEngines(t *testing.T) {
	for _, e := range allEngines(t) {
		e := e
		t.Run(e.eng.Name(), func(t *testing.T) {
			src := &workload.Transfer{Table: e.tbl, NumRecords: 64}
			res := repro.RunClosedLoop(e.eng, src, 100*time.Millisecond)
			if res.Totals.Committed == 0 {
				t.Fatal("no commits")
			}
			if got := sumBalances(e.db, e.tbl, 64); got != 64*1000 {
				t.Fatalf("sum = %d, want %d", got, 64*1000)
			}
		})
	}
}

// Latency histograms are populated through the public Result type.
func TestPublicAPILatencyReporting(t *testing.T) {
	db, tbl := newAccountDB(t, 1024, 0)
	eng := repro.NewOrthrus(repro.OrthrusConfig{DB: db, CCThreads: 2, ExecThreads: 2})
	src := &repro.YCSB{Table: tbl, NumRecords: 1024, OpsPerTxn: 4}
	res := repro.RunClosedLoop(eng, src, 60*time.Millisecond)
	lat := &res.Totals.Latency
	if lat.Count() != res.Totals.Committed {
		t.Fatalf("latency samples %d != commits %d", lat.Count(), res.Totals.Committed)
	}
	if lat.Mean() <= 0 || lat.Percentile(99) < lat.Percentile(50) {
		t.Fatalf("implausible latencies: %v", lat)
	}
}

// Custom hand-built transactions run on every engine unchanged.
func TestPublicAPICustomTxn(t *testing.T) {
	for _, e := range allEngines(t) {
		e := e
		t.Run(e.eng.Name(), func(t *testing.T) {
			tblID := e.tbl
			src := customSource(func(rng *rand.Rand) *repro.Txn {
				k := uint64(rng.Intn(64))
				tx := &repro.Txn{Ops: []repro.Op{{Table: tblID, Key: k, Mode: repro.Write}}}
				tx.Logic = func(ctx repro.Ctx) error {
					rec, err := ctx.Write(tblID, k)
					if err != nil {
						return err
					}
					repro.AddI64(rec, 8, 1) // second field: op counter
					return nil
				}
				return tx
			})
			res := repro.RunClosedLoop(e.eng, src, 60*time.Millisecond)
			if res.Totals.Committed == 0 {
				t.Fatal("no commits")
			}
			var total int64
			for k := uint64(0); k < 64; k++ {
				total += repro.GetI64(e.db.Table(e.tbl).Get(k), 8)
			}
			if total != int64(res.Totals.Committed) {
				t.Fatalf("counter total %d != commits %d", total, res.Totals.Committed)
			}
		})
	}
}

type customSource func(rng *rand.Rand) *repro.Txn

func (f customSource) Next(_ int, rng *rand.Rand) *repro.Txn { return f(rng) }

// The error sentinels are visible and distinguishable.
func TestPublicAPIErrors(t *testing.T) {
	if errors.Is(txn.ErrAborted, txn.ErrEstimateMiss) {
		t.Fatal("sentinels alias")
	}
	if txn.ErrAborted.Error() == "" || txn.ErrEstimateMiss.Error() == "" {
		t.Fatal("empty error strings")
	}
}

// TPC-C through the facade: load, run the paper mix, audit.
func TestPublicAPITPCC(t *testing.T) {
	s, err := repro.LoadTPCC(repro.TPCCConfig{Warehouses: 2, Items: 100, CustomersPerDistrict: 20})
	if err != nil {
		t.Fatal(err)
	}
	eng := repro.NewOrthrus(repro.OrthrusConfig{
		DB: s.DB, CCThreads: 2, ExecThreads: 2, Partition: s.PartitionByWarehouse(2),
	})
	res := repro.RunClosedLoop(eng, &repro.TPCCMix{S: s}, 100*time.Millisecond)
	if res.Totals.Committed == 0 {
		t.Fatal("no commits")
	}
	if err := s.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// Mode constants and helpers round-trip as documented.
func TestPublicAPIHelpers(t *testing.T) {
	if txn.Read.Conflicts(txn.Read) || !txn.Read.Conflicts(repro.Write) {
		t.Fatal("mode conflict matrix wrong")
	}
	rec := make([]byte, 16)
	storage.PutU64(rec, 0, 7)
	storage.AddU64(rec, 0, 2)
	if storage.GetU64(rec, 0) != 9 {
		t.Fatal("u64 helpers broken")
	}
	if txn.HashPartitioner(4)(0, 6) != 2 {
		t.Fatal("HashPartitioner broken")
	}
	ix := storage.NewSecondaryIndex()
	ix.Add(1, 10)
	if pk, _, ok := ix.Middle(1); !ok || pk != 10 {
		t.Fatal("secondary index broken")
	}
}

// ExampleYCSB demonstrates the quickstart flow (durations kept tiny so
// the example is fast under go test).
func Example() {
	db := repro.NewDB()
	tbl := db.Create(repro.Layout{Name: "accounts", NumRecords: 1 << 12, RecordSize: 100})
	eng := repro.NewOrthrus(repro.OrthrusConfig{DB: db, CCThreads: 1, ExecThreads: 1})
	src := &repro.YCSB{Table: tbl, NumRecords: 1 << 12, OpsPerTxn: 10, HotRecords: 64, HotOps: 2}
	res := repro.RunClosedLoop(eng, src, 20*time.Millisecond)
	fmt.Println(res.Totals.Committed > 0)
	// Output: true
}

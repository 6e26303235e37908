package partstore

import (
	"math/rand"
	"strings"
	"sync"
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

func TestSpinlockMutualExclusion(t *testing.T) {
	var l spinlock
	var counter int
	var wg sync.WaitGroup
	const workers, per = 8, 2000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				l.lock()
				counter++
				l.unlock()
			}
		}()
	}
	wg.Wait()
	if counter != workers*per {
		t.Fatalf("counter = %d, want %d", counter, workers*per)
	}
}

func TestSpinlockReportsContendedWait(t *testing.T) {
	var l spinlock
	if d := l.lock(); d != 0 {
		t.Fatalf("uncontended lock waited %v", d)
	}
	done := make(chan time.Duration, 1)
	go func() {
		done <- l.lock()
	}()
	time.Sleep(5 * time.Millisecond)
	l.unlock()
	if d := <-done; d < time.Millisecond {
		t.Fatalf("contended lock reported %v wait", d)
	}
	l.unlock()
}

func TestMultiPartitionConservation(t *testing.T) {
	const records, parts = 64, 4
	db, tbl := newDB(records)
	for k := uint64(0); k < records; k++ {
		storage.PutU64(db.Table(tbl).Get(k), 0, 100)
	}
	eng := New(Config{DB: db, Partitions: parts, Threads: 4})
	src := &workload.Transfer{Table: tbl, NumRecords: records}
	res := eng.Run(src, 150*time.Millisecond)
	if res.Totals.Committed == 0 {
		t.Fatal("no commits")
	}
	if res.Totals.Aborted != 0 {
		t.Fatal("partitioned store never aborts")
	}
	if got := sumTable(db, tbl, records); got != records*100 {
		t.Fatalf("sum = %d, want %d", got, records*100)
	}
}

func TestRMWIncrementsAccounted(t *testing.T) {
	const records, parts = 256, 4
	db, tbl := newDB(records)
	eng := New(Config{DB: db, Partitions: parts, Threads: 4})
	src := &workload.YCSB{
		Table: tbl, NumRecords: records, OpsPerTxn: 10,
		Partitions: parts, Spread: 2, MultiPartitionPct: 50,
	}
	if err := src.Validate(); err != nil {
		t.Fatal(err)
	}
	res := eng.Run(src, 150*time.Millisecond)
	if res.Totals.Committed == 0 {
		t.Fatal("no commits")
	}
	want := res.Totals.Committed * 10
	if got := sumTable(db, tbl, records); got != want {
		t.Fatalf("increments = %d, want %d", got, want)
	}
}

func TestDefaultsAndName(t *testing.T) {
	db, _ := newDB(16)
	eng := New(Config{DB: db, Partitions: 3})
	if eng.cfg.Threads != 3 {
		t.Fatalf("default Threads = %d", eng.cfg.Threads)
	}
	if !strings.Contains(eng.Name(), "partstore(3p/3t)") {
		t.Fatalf("Name = %q", eng.Name())
	}
}

// A transaction takes exactly one partition lock per partition it
// declares: Spread of them, from one to all. This is the cost behind the
// Figure 6 cliff; the throughput shape itself is the harness's fig6, not
// a wall-clock assertion here.
func TestPartitionLocksPerTxnEqualSpread(t *testing.T) {
	const records, parts = 1 << 12, 4
	for _, spread := range []int{1, parts} {
		db, tbl := newDB(records)
		eng := New(Config{DB: db, Partitions: parts, Threads: parts})
		src := &workload.YCSB{
			Table: tbl, NumRecords: records, OpsPerTxn: 8,
			Partitions: parts, Spread: spread, MultiPartitionPct: 100,
		}
		if err := src.Validate(); err != nil {
			t.Fatal(err)
		}
		tot := eng.Run(src, 30*time.Millisecond).Totals
		if tot.Committed == 0 {
			t.Fatalf("spread %d: no commits", spread)
		}
		if tot.PartLocks != uint64(spread)*tot.Committed {
			t.Fatalf("spread %d: %d partition locks over %d commits, want %d per txn",
				spread, tot.PartLocks, tot.Committed, spread)
		}
	}
}

func TestPartitionSetOrderingUsed(t *testing.T) {
	// Transactions with explicit unordered Partitions still terminate:
	// PartitionSet caches what the generator provided, which the
	// generator produces without ordering guarantees — the engine must
	// not rely on it being sorted to avoid deadlock... it sorts ops-derived
	// sets; generator sets are used as-is, so feed adversarial pairs.
	const records, parts = 64, 4
	db, tbl := newDB(records)
	eng := New(Config{DB: db, Partitions: parts, Threads: 2})
	var seq atomic.Int64
	src := srcFunc(func() *txn.Txn {
		a, b := 0, 1
		if seq.Add(1)%2 == 0 {
			a, b = 1, 0
		}
		t := &txn.Txn{
			Ops: []txn.Op{
				{Table: tbl, Key: uint64(a), Mode: txn.Write},
				{Table: tbl, Key: uint64(b), Mode: txn.Write},
			},
		}
		t.Logic = func(ctx txn.Ctx) error {
			for _, op := range t.Ops {
				rec, err := ctx.Write(op.Table, op.Key)
				if err != nil {
					return err
				}
				storage.PutU64(rec, 0, storage.GetU64(rec, 0)+1)
			}
			return nil
		}
		return t
	})
	res := eng.Run(src, 100*time.Millisecond)
	if res.Totals.Committed == 0 {
		t.Fatal("no commits")
	}
}

type srcFunc func() *txn.Txn

func (f srcFunc) Next(int, *rand.Rand) *txn.Txn { return f() }

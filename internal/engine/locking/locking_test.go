package locking

import (
	"math/rand"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/deadlock"
	"repro/internal/engine"
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

// preset is one of the paper's baselines as a Config without its DB.
type preset struct {
	name string
	cfg  Config
}

// presets returns the five baselines over the given thread count; the
// handlers keep per-engine state, so every call builds fresh ones.
func presets(threads int) []preset {
	return []preset{
		{"2pl-waitdie", Config{Handler: deadlock.WaitDie{}, Threads: threads}},
		{"2pl-waitfor", Config{Handler: deadlock.NewWaitForGraph(threads), Threads: threads}},
		{"2pl-dreadlocks", Config{Handler: deadlock.NewDreadlocks(threads), Threads: threads}},
		{"dlfree", Config{Threads: threads}},
		{"partstore", Config{Partitions: threads}},
	}
}

// build returns the preset's engine over db.
func (p preset) build(db *storage.DB) *Engine {
	cfg := p.cfg
	cfg.DB = db
	return New(cfg)
}

// Name() keys the harness columns and the benchgate SubmitAllocs rows.
func TestEngineName(t *testing.T) {
	db, _ := newDB(8)
	want := map[string]string{
		"2pl-waitdie":    "2pl-waitdie(2t)",
		"2pl-waitfor":    "2pl-waitfor(2t)",
		"2pl-dreadlocks": "2pl-dreadlocks(2t)",
		"dlfree":         "dlfree(2t)",
		"partstore":      "partstore(2p/2t)",
	}
	for _, p := range presets(2) {
		if got := p.build(db).Name(); got != want[p.name] {
			t.Errorf("%s: Name = %q, want %q", p.name, got, want[p.name])
		}
	}
}

// Partitioned-store defaults to one worker per partition.
func TestDefaultsAndName(t *testing.T) {
	db, _ := newDB(16)
	eng := New(Config{DB: db, Partitions: 3})
	if eng.cfg.Threads != 3 {
		t.Fatalf("default Threads = %d", eng.cfg.Threads)
	}
	if got := eng.Name(); got != "partstore(3p/3t)" {
		t.Fatalf("Name = %q, want partstore(3p/3t)", got)
	}
}

// Knobs of one footprint set on another panic rather than being ignored.
func TestValidateRejectsMixedFootprints(t *testing.T) {
	db, _ := newDB(8)
	for name, cfg := range map[string]Config{
		"no threads":           {DB: db},
		"handler and parts":    {DB: db, Handler: deadlock.WaitDie{}, Partitions: 2},
		"partition func alone": {DB: db, Threads: 2, Partition: txn.HashPartitioner(2)},
		"negative partitions":  {DB: db, Threads: 2, Partitions: -1},
	} {
		func() {
			defer func() {
				if r := recover(); r == nil || !strings.HasPrefix(r.(string), "locking: ") {
					t.Errorf("%s: recovered %v, want a locking: panic", name, r)
				}
			}()
			New(cfg)
		}()
	}
}

// Conservation under heavy conflict: the transfer workload's total balance
// is invariant iff isolation holds and aborts roll back completely. The
// ordered footprints never abort.
func TestTransferConservation(t *testing.T) {
	const threads, records = 4, 8
	for _, p := range presets(threads) {
		t.Run(p.name, func(t *testing.T) {
			db, tbl := newDB(records)
			for k := uint64(0); k < records; k++ {
				storage.PutU64(db.Table(tbl).Get(k), 0, 1000)
			}
			eng := p.build(db)
			res := engine.RunClosedLoop(eng, &workload.Transfer{Table: tbl, NumRecords: records}, 150*time.Millisecond)
			if res.Totals.Committed == 0 {
				t.Fatal("no commits")
			}
			if eng.fp != firstTouch && res.Totals.Aborted != 0 {
				t.Fatalf("ordered footprint aborted %d txns", res.Totals.Aborted)
			}
			if got := sumTable(db, tbl, records); got != records*1000 {
				t.Fatalf("sum = %d, want %d (isolation violated)", got, records*1000)
			}
		})
	}
}

// RMW on a tiny hot set — or, for Partitioned-store, on generator-declared
// partition sets half of which span two partitions: every committed
// increment must be present, and the ordered footprints never abort.
func TestRMWIncrementsAccounted(t *testing.T) {
	const threads = 4
	for _, p := range presets(threads) {
		t.Run(p.name, func(t *testing.T) {
			src := &workload.YCSB{NumRecords: 64, OpsPerTxn: 4, HotRecords: 4, HotOps: 2}
			if p.cfg.Partitions > 0 {
				src = &workload.YCSB{NumRecords: 256, OpsPerTxn: 10,
					Partitions: p.cfg.Partitions, Spread: 2, MultiPartitionPct: 50}
			}
			db, tbl := newDB(src.NumRecords)
			src.Table = tbl
			if err := src.Validate(); err != nil {
				t.Fatal(err)
			}
			eng := p.build(db)
			res := engine.RunClosedLoop(eng, src, 150*time.Millisecond)
			if res.Totals.Committed == 0 {
				t.Fatal("no commits")
			}
			if eng.fp != firstTouch && res.Totals.Aborted != 0 {
				t.Fatalf("aborts = %d, want 0", res.Totals.Aborted)
			}
			want := res.Totals.Committed * uint64(src.OpsPerTxn)
			if got := sumTable(db, tbl, src.NumRecords); got != want {
				t.Fatalf("increments = %d, want %d (commits=%d aborts=%d)",
					got, want, res.Totals.Committed, res.Totals.Aborted)
			}
		})
	}
}

// Every footprint books its time as execute, lock and wait, and nothing
// as log without a WAL.
func TestTimeBreakdownAccounted(t *testing.T) {
	for _, p := range presets(4) {
		t.Run(p.name, func(t *testing.T) {
			db, tbl := newDB(64)
			src := &workload.YCSB{Table: tbl, NumRecords: 64, OpsPerTxn: 4, HotRecords: 8, HotOps: 2}
			tot := engine.RunClosedLoop(p.build(db), src, 100*time.Millisecond).Totals
			if tot.Exec <= 0 || tot.Lock <= 0 {
				t.Fatalf("breakdown missing components: %+v", tot)
			}
			e, l, w, lg := tot.Breakdown()
			if e+l+w+lg < 99.9 || e+l+w+lg > 100.1 {
				t.Fatalf("breakdown sums to %v", e+l+w+lg)
			}
			if lg != 0 {
				t.Fatalf("log share %v without a WAL", lg)
			}
		})
	}
}

func TestReadOnlyNeverAborts(t *testing.T) {
	db, tbl := newDB(1024)
	eng := New(Config{DB: db, Handler: deadlock.WaitDie{}, Threads: 4})
	src := &workload.YCSB{Table: tbl, NumRecords: 1024, OpsPerTxn: 10, ReadOnly: true, HotRecords: 16, HotOps: 2}
	res := engine.RunClosedLoop(eng, src, 100*time.Millisecond)
	if res.Totals.Committed == 0 {
		t.Fatal("no commits")
	}
	if res.Totals.Aborted != 0 {
		t.Fatalf("read-only workload aborted %d txns", res.Totals.Aborted)
	}
}

// Per-op read shares of 50, 95 and 100 % (the YCSB A, B and C mixes) run
// on 2PL with shared and exclusive ops interleaved inside one transaction.
func TestStandardMixes(t *testing.T) {
	const threads, records = 4, 4096
	for _, readPct := range []int{50, 95, 100} {
		db, tbl := newDB(records)
		src := srcFunc(func() *txn.Txn {
			tx := &txn.Txn{}
			for len(tx.Ops) < 10 {
				key := uint64(rand.Int63n(records)) // global rand: Next runs on every worker
				if slices.ContainsFunc(tx.Ops, func(op txn.Op) bool { return op.Key == key }) {
					continue
				}
				mode := txn.Write
				if rand.Intn(100) < readPct {
					mode = txn.Read
				}
				tx.Ops = append(tx.Ops, txn.Op{Table: tbl, Key: key, Mode: mode})
			}
			tx.Logic = func(ctx txn.Ctx) error {
				for _, op := range tx.Ops {
					if op.Mode == txn.Read {
						if _, err := ctx.Read(op.Table, op.Key); err != nil {
							return err
						}
						continue
					}
					rec, err := ctx.Write(op.Table, op.Key)
					if err != nil {
						return err
					}
					storage.PutU64(rec, 0, storage.GetU64(rec, 0)+1)
				}
				return nil
			}
			return tx
		})
		eng := New(Config{DB: db, Handler: deadlock.WaitDie{}, Threads: threads})
		res := engine.RunClosedLoop(eng, src, 100*time.Millisecond)
		if res.Totals.Committed == 0 {
			t.Fatalf("read share %d%%: no commits", readPct)
		}
	}
}

// srcFunc adapts a plain constructor to workload.Source.
type srcFunc func() *txn.Txn

func (f srcFunc) Next(int, *rand.Rand) *txn.Txn { return f() }

// Reacquiring a key already held in a sufficient mode reuses the request;
// a read→write upgrade is refused with a diagnostic (documented
// limitation: writers must declare Write on first touch).
func TestHeldLockReuseAndUpgradeGuard(t *testing.T) {
	db, tbl := newDB(8)
	eng := New(Config{DB: db, Handler: deadlock.WaitDie{}, Threads: 1})
	w := &worker{eng: eng, PlannedCtx: engine.PlannedCtx{DB: db}}
	w.Begin(&txn.Txn{ID: 1, TS: 1})

	if _, err := w.Write(tbl, 3); err != nil {
		t.Fatal(err)
	}
	// Write-then-read and write-then-write reuse the held X lock.
	if _, err := w.Read(tbl, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(tbl, 3); err != nil {
		t.Fatal(err)
	}
	if len(w.held) != 1 {
		t.Fatalf("held %d locks, want 1", len(w.held))
	}
	// Read-then-write upgrade is refused.
	if _, err := w.Read(tbl, 5); err != nil {
		t.Fatal(err)
	}
	_, err := w.Write(tbl, 5)
	if err == nil || !strings.Contains(err.Error(), "upgrade") {
		t.Fatalf("upgrade err = %v", err)
	}
	w.Commit()
	w.release()
}

// Undo restores exactly the pre-transaction image after a mid-logic
// abort: the first attempt writes 999 and is victimized, and its retry
// must read the original 77 before it commits.
func TestAbortRollsBackPartialWrites(t *testing.T) {
	db, tbl := newDB(8)
	storage.PutU64(db.Table(tbl).Get(2), 0, 77)
	eng := New(Config{DB: db, Handler: deadlock.WaitDie{}, Threads: 1})
	var seen []uint64 // the value each attempt read; one worker, so no race
	tx := &txn.Txn{}
	tx.Logic = func(ctx txn.Ctx) error {
		rec, err := ctx.Write(tbl, 2)
		if err != nil {
			return err
		}
		seen = append(seen, storage.GetU64(rec, 0))
		if len(seen) == 1 {
			storage.PutU64(rec, 0, 999)
			return txn.ErrAborted // simulate a handler victimization mid-logic
		}
		return nil
	}
	ses := eng.Start()
	ses.Submit(tx, nil)
	res := ses.Close()
	if res.Totals.Aborted != 1 || res.Totals.Committed != 1 {
		t.Fatalf("aborted %d, committed %d; want 1 and 1", res.Totals.Aborted, res.Totals.Committed)
	}
	if len(seen) != 2 || seen[1] != 77 {
		t.Fatalf("attempts read %v, want [77 77]: the abort did not roll back 999", seen)
	}
	if got := storage.GetU64(db.Table(tbl).Get(2), 0); got != 77 {
		t.Fatalf("record = %d after commit, want 77", got)
	}
}

// estimateMissSource emits transactions whose first plan is deliberately
// wrong; Replan fixes them. Exercises the OLLP miss path end to end.
type estimateMissSource struct {
	table  int
	misses atomic.Int64
}

func (s *estimateMissSource) Next(int, *rand.Rand) *txn.Txn {
	t := &txn.Txn{Ops: []txn.Op{{Table: s.table, Key: 0, Mode: txn.Write}}} // wrong: logic wants key 1
	t.Logic = func(ctx txn.Ctx) error {
		rec, err := ctx.Write(s.table, 1)
		if err != nil {
			return err
		}
		storage.PutU64(rec, 0, storage.GetU64(rec, 0)+1)
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
	s := &estimateMissSource{table: tbl}
	res := engine.RunClosedLoop(New(Config{DB: db, Threads: 1}), s, 30*time.Millisecond)
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

// A partition lock is the only thing ordering Partitioned-store
// transactions that share a partition: four workers run transactions on
// partition 0 that each hold it for a while and bump a plain counter.
// They must never overlap — checked directly, and by the race detector
// on the counter, which nothing else orders — and the queued ones must
// report their wait in Totals.Wait.
func TestPartitionLocksExclude(t *testing.T) {
	db, tbl := newDB(8)
	eng := New(Config{DB: db, Partitions: 2, Threads: 4})
	var inside atomic.Int32
	var overlapped atomic.Bool
	shared := uint64(0) // guarded by partition 0's lock alone
	src := srcFunc(func() *txn.Txn {
		tx := &txn.Txn{Ops: []txn.Op{{Table: tbl, Key: 0, Mode: txn.Write}}} // key 0 is partition 0
		tx.Logic = func(txn.Ctx) error {
			if inside.Add(1) != 1 {
				overlapped.Store(true)
			}
			shared++
			time.Sleep(100 * time.Microsecond)
			inside.Add(-1)
			return nil
		}
		return tx
	})
	tot := engine.RunClosedLoop(eng, src, 50*time.Millisecond).Totals
	if overlapped.Load() {
		t.Fatal("two transactions ran inside partition 0 at once")
	}
	if tot.Committed == 0 || shared != tot.Committed {
		t.Fatalf("counter = %d over %d commits", shared, tot.Committed)
	}
	if tot.Wait <= 0 {
		t.Fatalf("contended partition reported no wait: %+v", tot)
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
		tot := engine.RunClosedLoop(eng, src, 30*time.Millisecond).Totals
		if tot.Committed == 0 {
			t.Fatalf("spread %d: no commits", spread)
		}
		if tot.PartLocks != uint64(spread)*tot.Committed {
			t.Fatalf("spread %d: %d partition locks over %d commits, want %d per txn",
				spread, tot.PartLocks, tot.Committed, spread)
		}
	}
}

// Transactions whose declared sets name the same two partitions in
// opposite orders still terminate: the engine sorts every footprint
// before locking it.
func TestPartitionSetOrderingUsed(t *testing.T) {
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
	res := engine.RunClosedLoop(eng, src, 100*time.Millisecond)
	if res.Totals.Committed == 0 {
		t.Fatal("no commits")
	}
}

package repro_test

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro"
)

// MVCC snapshot-read regressions: sum-conserving read-only snapshots
// against concurrent pair-writers and inserts, on all four engines,
// under -race; plus the WAL visibility rule (snapshot readers never see
// unacknowledged writes) and loud knob validation.

const (
	snapSpan = 128 // versioned account records
	snapHot  = 32  // transfer hot prefix (forces write-write conflicts)
)

// snapEngines builds the four systems over one database.
func snapEngines() []struct {
	name  string
	build func(db *repro.DB) repro.Runtime
} {
	return []struct {
		name  string
		build func(db *repro.DB) repro.Runtime
	}{
		{"2pl-waitdie", func(db *repro.DB) repro.Runtime {
			return repro.NewTwoPL(repro.TwoPLConfig{DB: db, Handler: repro.WaitDie(), Threads: 4})
		}},
		{"dlfree", func(db *repro.DB) repro.Runtime {
			return repro.NewDeadlockFree(repro.DeadlockFreeConfig{DB: db, Threads: 4})
		}},
		{"partstore", func(db *repro.DB) repro.Runtime {
			return repro.NewPartitionedStore(repro.PartitionedStoreConfig{DB: db, Partitions: 4})
		}},
		{"orthrus", func(db *repro.DB) repro.Runtime {
			return repro.NewOrthrus(repro.OrthrusConfig{DB: db, CCThreads: 2, ExecThreads: 2})
		}},
	}
}

// snapTransferTxn moves one unit between two hot accounts, keeping the
// table sum invariant (mod 2⁶⁴) at every committed prefix.
func snapTransferTxn(tbl int, i int) *repro.Txn {
	a := uint64(i) % snapHot
	b := (uint64(i)*7 + 1) % snapHot
	if b == a {
		b = (b + 1) % snapHot
	}
	t := &repro.Txn{Ops: []repro.Op{
		{Table: tbl, Key: a, Mode: repro.Write},
		{Table: tbl, Key: b, Mode: repro.Write},
	}}
	t.Logic = func(ctx repro.Ctx) error {
		src, err := ctx.Write(tbl, a)
		if err != nil {
			return err
		}
		dst, err := ctx.Write(tbl, b)
		if err != nil {
			return err
		}
		repro.AddU64(src, 0, ^uint64(0)) // -1
		repro.AddU64(dst, 0, 1)
		return nil
	}
	return t
}

// snapScanTxn is a read-only snapshot scan of the whole account table.
// Each transfer commits -1/+1 atomically, so any snapshot that exposed a
// half-applied or unacknowledged transfer would break sum == 0.
func snapScanTxn(tbl int, violations *atomic.Int64) *repro.Txn {
	t := &repro.Txn{
		Ranges:   []repro.RangeOp{{Table: tbl, Lo: 0, Hi: snapSpan, Mode: repro.Read}},
		ReadOnly: true,
	}
	t.Logic = func(ctx repro.Ctx) error {
		var sum uint64
		if err := ctx.Scan(tbl, 0, snapSpan, func(_ uint64, rec []byte) error {
			sum += repro.GetU64(rec, 0)
			return nil
		}); err != nil {
			return err
		}
		if sum != 0 {
			violations.Add(1)
		}
		return nil
	}
	return t
}

// snapInsertTxn grows a separate ordered table while snapshots run, so
// version pruning and snapshot registration are exercised alongside the
// insert path they must not disturb.
func snapInsertTxn(tbl int, k uint64) *repro.Txn {
	t := &repro.Txn{Ranges: []repro.RangeOp{{Table: tbl, Lo: k, Hi: k + 1, Mode: repro.Write}}}
	t.Logic = func(ctx repro.Ctx) error {
		var buf [16]byte
		repro.PutU64(buf[:], 0, k)
		return ctx.Insert(tbl, k, buf[:])
	}
	return t
}

func TestSnapshotConservationAllEngines(t *testing.T) {
	const (
		writers      = 3
		perWriter    = 60
		readers      = 2
		perReader    = 30
		inserts      = 40
		versionDepth = 4 // small, so pruning actually runs under load
	)
	for _, tc := range snapEngines() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			db := repro.NewDB()
			acct := db.Create(repro.Layout{
				Name: "accounts", NumRecords: snapSpan, RecordSize: 16,
				Versioned: true, VersionDepth: versionDepth,
			})
			grow := db.Create(repro.Layout{
				Name: "audit", NumRecords: 64, RecordSize: 16,
				Growable: true, Ordered: true,
			})
			eng := tc.build(db)
			ses := eng.Start()
			var violations atomic.Int64
			var wg sync.WaitGroup
			for w := 0; w < writers; w++ {
				w := w
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := w; i < writers*perWriter; i += writers {
						ses.Submit(snapTransferTxn(acct, i), nil)
					}
				}()
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k := uint64(0); k < inserts; k++ {
					ses.Submit(snapInsertTxn(grow, k), nil)
				}
			}()
			for r := 0; r < readers; r++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < perReader; i++ {
						ses.Submit(snapScanTxn(acct, &violations), nil)
					}
				}()
			}
			wg.Wait()
			ses.Drain()
			res := ses.Close()

			if n := violations.Load(); n != 0 {
				t.Fatalf("%d snapshot scans observed a non-conserved sum", n)
			}
			if res.Totals.SnapTxns == 0 {
				t.Fatal("no transaction took the snapshot path")
			}
			if res.Totals.Installed == 0 {
				t.Fatal("no versions were installed at commit")
			}
			// Quiesced: the live arena must conserve the sum too.
			var sum uint64
			db.Table(acct).Scan(0, snapSpan, func(_ uint64, rec []byte) bool {
				sum += repro.GetU64(rec, 0)
				return true
			})
			if sum != 0 {
				t.Fatalf("final arena sum = %d, want 0", sum)
			}
			if got := db.Table(grow).Len(); got != inserts {
				t.Fatalf("audit table holds %d records, want %d", got, inserts)
			}
		})
	}
}

// The closed-loop driver path: a YCSB mix with ReadOnlyPct on a
// versioned table must route the read-only fraction through snapshots
// (SnapTxns) on every engine, and snapshot transactions never abort.
func TestSnapshotStatsOnRun(t *testing.T) {
	for _, tc := range snapEngines() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			db := repro.NewDB()
			tbl := db.Create(repro.Layout{
				Name: "ycsb", NumRecords: 4096, RecordSize: 64, Versioned: true,
			})
			src := &repro.YCSB{Table: tbl, NumRecords: 4096, OpsPerTxn: 4,
				HotRecords: 64, HotOps: 2, ReadOnlyPct: 50}
			if err := src.Validate(); err != nil {
				t.Fatal(err)
			}
			eng, ok := tc.build(db).(repro.Engine)
			if !ok {
				t.Fatalf("%s does not implement Engine", tc.name)
			}
			res := eng.Run(src, 30*time.Millisecond)
			if res.Totals.Committed == 0 {
				t.Fatal("nothing committed")
			}
			if res.Totals.SnapTxns == 0 {
				t.Fatal("ReadOnlyPct mix produced no snapshot transactions")
			}
			if res.Totals.SnapRecords == 0 {
				t.Fatal("snapshot transactions read no records")
			}
			if res.Totals.Installed == 0 {
				t.Fatal("writers installed no versions")
			}
		})
	}
}

// With a WAL attached, a snapshot is the *acknowledged* frontier: a
// write that has committed locally but whose group-commit flush has not
// fired is invisible to snapshot readers, and becomes visible once the
// log drains (acknowledgment order = LSN order).
func TestSnapshotReadsSeeOnlyAckedWrites(t *testing.T) {
	db := repro.NewDB()
	tbl := db.Create(repro.Layout{Name: "t", NumRecords: 8, RecordSize: 16, Versioned: true})
	log := repro.NewWAL(repro.NewWALMemSegments(0), repro.WALGroup(1<<20, time.Hour))
	eng := repro.NewTwoPL(repro.TwoPLConfig{DB: db, Handler: repro.WaitDie(), Threads: 2, Wal: log})
	ses := eng.Start()

	var acked atomic.Int64
	wtx := &repro.Txn{Ops: []repro.Op{{Table: tbl, Key: 0, Mode: repro.Write}}}
	wtx.Logic = func(ctx repro.Ctx) error {
		rec, err := ctx.Write(tbl, 0)
		if err != nil {
			return err
		}
		repro.PutU64(rec, 0, 7)
		return nil
	}
	ses.Submit(wtx, func(bool) { acked.Add(1) })

	// Wait until the writer has appended its redo record (LSN 1 assigned)
	// but before any flush: the huge group size and hour-long interval
	// keep it unacknowledged until Drain forces the flush.
	deadline := time.Now().Add(5 * time.Second)
	for log.LastLSN() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("writer never appended its redo record")
		}
	}

	read := func() uint64 {
		var got uint64
		done := make(chan struct{})
		rtx := &repro.Txn{
			Ops:      []repro.Op{{Table: tbl, Key: 0, Mode: repro.Read}},
			ReadOnly: true,
		}
		rtx.Logic = func(ctx repro.Ctx) error {
			rec, err := ctx.Read(tbl, 0)
			if err != nil {
				return err
			}
			got = repro.GetU64(rec, 0)
			return nil
		}
		ses.Submit(rtx, func(bool) { close(done) })
		<-done
		return got
	}

	if got := read(); got != 0 {
		t.Fatalf("snapshot read saw unacknowledged write: %d", got)
	}
	if acked.Load() != 0 {
		t.Fatal("write was acknowledged before any flush")
	}
	log.Drain() // forces the group-commit flush; acknowledgment fires
	if acked.Load() != 1 {
		t.Fatal("log drain did not acknowledge the write")
	}
	ses.Drain()
	if got := read(); got != 7 {
		t.Fatalf("post-drain snapshot read = %d, want 7", got)
	}
	ses.Close()
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
}

// Knob validation is loud: a negative Snapshots prune interval panics at
// Start, not silently misbehaving mid-run.
func TestSnapshotPruneEveryValidation(t *testing.T) {
	for _, tc := range []struct {
		name  string
		start func(db *repro.DB)
	}{
		{"2pl", func(db *repro.DB) {
			repro.NewTwoPL(repro.TwoPLConfig{DB: db, Handler: repro.WaitDie(), Threads: 2,
				Snapshot: repro.SnapshotConfig{PruneEvery: -1}}).Start()
		}},
		{"orthrus", func(db *repro.DB) {
			repro.NewOrthrus(repro.OrthrusConfig{DB: db, CCThreads: 1, ExecThreads: 1,
				Snapshot: repro.SnapshotConfig{PruneEvery: -1}}).Start()
		}},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			db := repro.NewDB()
			db.Create(repro.Layout{Name: "t", NumRecords: 8, RecordSize: 16, Versioned: true})
			defer func() {
				if recover() == nil {
					t.Fatal("negative PruneEvery did not panic at Start")
				}
			}()
			tc.start(db)
		})
	}
}

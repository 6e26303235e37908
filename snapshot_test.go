package repro_test

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro"
	"repro/internal/engine"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/wal"
)

// MVCC snapshot-read regressions: sum-conserving read-only snapshots
// against concurrent pair-writers and inserts, on all four engines,
// under -race; plus the WAL visibility rule (snapshot readers never see
// unacknowledged writes) and loud knob validation.

const (
	snapSpan = 128 // versioned account records
	snapHot  = 32  // transfer hot prefix (forces write-write conflicts)
)

// snapEngines builds the four systems over one database, each with the
// given snapshot tracker configuration.
func snapEngines(snap engine.SnapshotConfig) []struct {
	name  string
	build func(db *repro.DB) repro.Engine
} {
	return []struct {
		name  string
		build func(db *repro.DB) repro.Engine
	}{
		{"2pl-waitdie", func(db *repro.DB) repro.Engine {
			return repro.NewTwoPL(repro.LockingConfig{DB: db, Handler: repro.WaitDie(), Threads: 4, Snapshot: snap})
		}},
		{"dlfree", func(db *repro.DB) repro.Engine {
			return repro.NewDeadlockFree(repro.LockingConfig{DB: db, Threads: 4, Snapshot: snap})
		}},
		{"partstore", func(db *repro.DB) repro.Engine {
			return repro.NewPartitionedStore(repro.LockingConfig{DB: db, Partitions: 4, Snapshot: snap})
		}},
		{"orthrus", func(db *repro.DB) repro.Engine {
			return repro.NewOrthrus(repro.OrthrusConfig{DB: db, CCThreads: 2, ExecThreads: 2, Snapshot: snap})
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
		storage.AddU64(src, 0, ^uint64(0)) // -1
		storage.AddU64(dst, 0, 1)
		return nil
	}
	return t
}

// snapScanTxn is a read-only snapshot scan of the whole account table.
// Each transfer commits -1/+1 atomically, so any snapshot that exposed a
// half-applied or unacknowledged transfer would break sum == 0.
func snapScanTxn(tbl int, violations *atomic.Int64) *repro.Txn {
	t := &repro.Txn{
		Ranges:   []txn.RangeOp{{Table: tbl, Lo: 0, Hi: snapSpan, Mode: txn.Read}},
		ReadOnly: true,
	}
	t.Logic = func(ctx repro.Ctx) error {
		var sum uint64
		if err := ctx.Scan(tbl, 0, snapSpan, func(_ uint64, rec []byte) error {
			sum += storage.GetU64(rec, 0)
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
	t := &repro.Txn{Ranges: []txn.RangeOp{{Table: tbl, Lo: k, Hi: k + 1, Mode: repro.Write}}}
	t.Logic = func(ctx repro.Ctx) error {
		var buf [16]byte
		storage.PutU64(buf[:], 0, k)
		return ctx.Insert(tbl, k, buf[:])
	}
	return t
}

func TestSnapshotConservationAllEngines(t *testing.T) {
	const (
		writers   = 3
		perWriter = 60
		readers   = 2
		perReader = 30
		inserts   = 40
	)
	// The watermark is recomputed at every begin and every commit, so
	// pruning actually runs under this short load.
	for _, tc := range snapEngines(engine.SnapshotConfig{PruneEvery: 1}) {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			db := repro.NewDB()
			acct := db.Create(repro.Layout{
				Name: "accounts", NumRecords: snapSpan, RecordSize: 16,
				Versioned: true,
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
				sum += storage.GetU64(rec, 0)
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
	for _, tc := range snapEngines(engine.SnapshotConfig{}) {
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
			res := repro.RunClosedLoop(eng, src, 30*time.Millisecond)
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
	log := wal.NewLog(wal.NewMemSegments(0), wal.Group(1<<20, time.Hour))
	eng := repro.NewTwoPL(repro.LockingConfig{DB: db, Handler: repro.WaitDie(), Threads: 2, Wal: log})
	ses := eng.Start()

	var acked atomic.Int64
	wtx := &repro.Txn{Ops: []repro.Op{{Table: tbl, Key: 0, Mode: repro.Write}}}
	wtx.Logic = func(ctx repro.Ctx) error {
		rec, err := ctx.Write(tbl, 0)
		if err != nil {
			return err
		}
		storage.PutU64(rec, 0, 7)
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
			Ops:      []repro.Op{{Table: tbl, Key: 0, Mode: txn.Read}},
			ReadOnly: true,
		}
		rtx.Logic = func(ctx repro.Ctx) error {
			rec, err := ctx.Read(tbl, 0)
			if err != nil {
				return err
			}
			got = storage.GetU64(rec, 0)
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

// A versioned table nobody reads from still prunes: the commit path
// recomputes the watermark, so a write-only session hammering a few keys
// keeps every chain — and so every install's walk — short. Before the
// commit side advanced it, each of these chains held one node per write.
func TestWriteOnlySessionBoundsChains(t *testing.T) {
	const (
		hot     = 16
		writers = 4
		txns    = 12000 // two writes each: 1500 versions per key if nothing pruned
		every   = 4
		// Versions newer than the watermark at a key's last install: each
		// of the four workers may be every commits past its last
		// recomputation, two writes per commit, plus the commits in flight;
		// all of them on one key is the worst case.
		bound = 4*every*2 + 16
	)
	for _, tc := range snapEngines(engine.SnapshotConfig{PruneEvery: every}) {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			db := repro.NewDB()
			tbl := db.Create(repro.Layout{Name: "hot", NumRecords: hot, RecordSize: 16, Versioned: true})
			ses := tc.build(db).Start()
			var wg sync.WaitGroup
			for w := 0; w < writers; w++ {
				w := w
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := w; i < txns; i += writers {
						a, b := uint64(i)%hot, (uint64(i)*5+3)%hot
						if a == b {
							b = (b + 1) % hot
						}
						tx := &repro.Txn{Ops: []repro.Op{
							{Table: tbl, Key: a, Mode: repro.Write},
							{Table: tbl, Key: b, Mode: repro.Write},
						}}
						tx.Logic = func(ctx repro.Ctx) error {
							for _, k := range []uint64{a, b} {
								rec, err := ctx.Write(tbl, k)
								if err != nil {
									return err
								}
								storage.AddU64(rec, 0, 1)
							}
							return nil
						}
						ses.Submit(tx, nil)
					}
				}()
			}
			wg.Wait()
			ses.Drain()
			res := ses.Close()
			if res.Totals.SnapTxns != 0 {
				t.Fatalf("%d snapshot transactions in a write-only session", res.Totals.SnapTxns)
			}
			if res.Totals.Installed != 2*txns {
				t.Fatalf("installed %d versions, want %d", res.Totals.Installed, 2*txns)
			}
			chains := db.Table(tbl).(interface{ ChainLen(key uint64) int })
			for k := uint64(0); k < hot; k++ {
				if got := chains.ChainLen(k); got > bound {
					t.Errorf("key %d: chain holds %d versions after a write-only run, want ≤ %d", k, got, bound)
				}
			}
		})
	}
}

// Recycled version nodes never reach a reader: writers rewrite four hot
// records so that every word of a record carries the same value, with the
// watermark recomputed at every begin and every commit, while snapshot
// readers check every word of every record they resolve, and check the
// same memory again as their transaction ends. A node reused while a
// registered snapshot could still resolve to it shows up as a torn or
// changed image here, and as a data race under -race.
func TestSnapshotImagesNeverTorn(t *testing.T) {
	const (
		hot     = 4
		words   = 8
		writers = 3
		readers = 2
	)
	perWriter, perReader := 1500, 1500
	if testing.Short() {
		perWriter, perReader = 400, 400
	}
	uniform := func(rec []byte) (uint64, bool) {
		v := storage.GetU64(rec, 0)
		for w := 1; w < words; w++ {
			if storage.GetU64(rec, w*8) != v {
				return v, false
			}
		}
		return v, true
	}
	for _, tc := range snapEngines(engine.SnapshotConfig{PruneEvery: 1}) {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			db := repro.NewDB()
			tbl := db.Create(repro.Layout{Name: "hot", NumRecords: hot, RecordSize: words * 8, Versioned: true})
			ses := tc.build(db).Start()
			var torn, changed atomic.Int64
			var wg sync.WaitGroup
			for w := 0; w < writers; w++ {
				w := w
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < perWriter; i++ {
						k := uint64(w+i) % hot
						tx := &repro.Txn{Ops: []repro.Op{{Table: tbl, Key: k, Mode: repro.Write}}}
						tx.Logic = func(ctx repro.Ctx) error {
							rec, err := ctx.Write(tbl, k)
							if err != nil {
								return err
							}
							v := storage.GetU64(rec, 0) + 1
							for w := 0; w < words; w++ {
								storage.PutU64(rec, w*8, v)
							}
							return nil
						}
						ses.Submit(tx, nil)
					}
				}()
			}
			for r := 0; r < readers; r++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < perReader; i++ {
						tx := &repro.Txn{ReadOnly: true}
						for k := uint64(0); k < hot; k++ {
							tx.Ops = append(tx.Ops, repro.Op{Table: tbl, Key: k, Mode: txn.Read})
						}
						tx.Logic = func(ctx repro.Ctx) error {
							var recs [hot][]byte
							var seen [hot]uint64
							for k := range recs {
								rec, err := ctx.Read(tbl, uint64(k))
								if err != nil {
									return err
								}
								v, ok := uniform(rec)
								if !ok {
									torn.Add(1)
								}
								recs[k], seen[k] = rec, v
							}
							for k, rec := range recs {
								if v, ok := uniform(rec); !ok || v != seen[k] {
									changed.Add(1)
								}
							}
							return nil
						}
						ses.Submit(tx, nil)
					}
				}()
			}
			wg.Wait()
			ses.Drain()
			res := ses.Close()
			if n := torn.Load(); n != 0 {
				t.Errorf("%d snapshot reads resolved to a torn image", n)
			}
			if n := changed.Load(); n != 0 {
				t.Errorf("%d images changed while their snapshot was registered", n)
			}
			if res.Totals.SnapTxns != uint64(readers*perReader) {
				t.Errorf("%d snapshot transactions, want %d", res.Totals.SnapTxns, readers*perReader)
			}
			var sum uint64
			for k := uint64(0); k < hot; k++ {
				v, ok := uniform(db.Table(tbl).Get(k))
				if !ok {
					t.Errorf("key %d: final row is not uniform", k)
				}
				sum += v
			}
			if want := uint64(writers * perWriter); sum != want {
				t.Errorf("final counters sum to %d, want %d committed writes", sum, want)
			}
		})
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
			repro.NewTwoPL(repro.LockingConfig{DB: db, Handler: repro.WaitDie(), Threads: 2,
				Snapshot: engine.SnapshotConfig{PruneEvery: -1}}).Start()
		}},
		{"orthrus", func(db *repro.DB) {
			repro.NewOrthrus(repro.OrthrusConfig{DB: db, CCThreads: 1, ExecThreads: 1,
				Snapshot: engine.SnapshotConfig{PruneEvery: -1}}).Start()
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

// With a WAL on, a write commit completes on the group-commit flusher
// while a snapshot read completes inline on its worker. Both must land in
// the session's latency histogram, one sample per commit — the flusher's
// completions and the worker's must not share an unsynchronized
// histogram (-race reports it; without -race samples go missing). One
// worker thread, so every inline completion races the same thread's
// flusher-side ones.
func TestLatencyCountsEveryCommitUnderWAL(t *testing.T) {
	const records = 256
	for _, tc := range []struct {
		name  string
		build func(db *repro.DB, wl *wal.Log) repro.Engine
	}{
		{"orthrus", func(db *repro.DB, wl *wal.Log) repro.Engine {
			return repro.NewOrthrus(repro.OrthrusConfig{DB: db, CCThreads: 1, ExecThreads: 1, Wal: wl})
		}},
		{"2pl-waitdie", func(db *repro.DB, wl *wal.Log) repro.Engine {
			return repro.NewTwoPL(repro.LockingConfig{DB: db, Handler: repro.WaitDie(), Threads: 1, Wal: wl})
		}},
		{"dlfree", func(db *repro.DB, wl *wal.Log) repro.Engine {
			return repro.NewDeadlockFree(repro.LockingConfig{DB: db, Threads: 1, Wal: wl})
		}},
		{"partstore", func(db *repro.DB, wl *wal.Log) repro.Engine {
			return repro.NewPartitionedStore(repro.LockingConfig{DB: db, Partitions: 1, Wal: wl})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			db := repro.NewDB()
			tbl := db.Create(repro.Layout{Name: "ycsb", NumRecords: records, RecordSize: 16, Versioned: true})
			wl := wal.NewLog(wal.NewMemSegments(0), wal.Group(0, 0))
			defer wl.Close()
			src := &repro.YCSB{Table: tbl, NumRecords: records, OpsPerTxn: 4, ReadOnlyPct: 50}
			if err := src.Validate(); err != nil {
				t.Fatal(err)
			}
			res := repro.RunClosedLoop(tc.build(db, wl), src, 30*time.Millisecond)
			tot := res.Totals
			if tot.SnapTxns == 0 || tot.SnapTxns == tot.Committed {
				t.Fatalf("%d of %d commits were snapshot reads, want both paths exercised", tot.SnapTxns, tot.Committed)
			}
			if got := tot.Latency.Count(); got != tot.Committed {
				t.Errorf("latency histogram holds %d samples for %d commits", got, tot.Committed)
			}
		})
	}
}

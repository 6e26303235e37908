package repro_test

import (
	"bytes"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro"
)

// checkpointedEngine bundles one engine built over a segmented WAL and an
// in-memory checkpoint store, ready for crash-recovery tests.
type checkpointedEngine struct {
	name  string
	sys   repro.System
	db    *repro.DB
	tbl   int
	dev   *repro.WALMemSegments
	log   *repro.WAL
	store interface {
		repro.CheckpointStore
		Count() int
		Manifests() []repro.CheckpointManifest
		DropNewest()
		CorruptNewestManifest()
		CorruptNewestPage()
	}
}

// checkpointedEngines builds every system over a fresh 64-account database
// with a small-segment WAL (so rotation and truncation actually happen) and
// a checkpointer configured for manual ForceCheckpoint control.
func checkpointedEngines(t testing.TB) []*checkpointedEngine {
	t.Helper()
	const threads = 4
	var out []*checkpointedEngine
	build := func(name string, f func(db *repro.DB, log *repro.WAL, ck repro.CheckpointConfig) repro.System) {
		db, tbl := newAccountDB(t, 64, 1000)
		dev := repro.NewWALMemSegments(4 << 10)
		log := repro.NewWAL(dev, repro.WALGroup(16, 100*time.Microsecond))
		store := repro.NewMemCheckpointStore()
		ck := repro.CheckpointConfig{Store: store, Interval: time.Hour, ChunkRecords: 7}
		out = append(out, &checkpointedEngine{
			name: name, sys: f(db, log, ck), db: db, tbl: tbl, dev: dev, log: log, store: store,
		})
	}
	build("orthrus", func(db *repro.DB, log *repro.WAL, ck repro.CheckpointConfig) repro.System {
		return repro.NewOrthrus(repro.OrthrusConfig{DB: db, CCThreads: 2, ExecThreads: 2, Wal: log, Checkpoint: ck})
	})
	build("dlfree", func(db *repro.DB, log *repro.WAL, ck repro.CheckpointConfig) repro.System {
		return repro.NewDeadlockFree(repro.LockingConfig{DB: db, Threads: threads, Wal: log, Checkpoint: ck})
	})
	build("twopl", func(db *repro.DB, log *repro.WAL, ck repro.CheckpointConfig) repro.System {
		return repro.NewTwoPL(repro.LockingConfig{DB: db, Handler: repro.WaitDie(), Threads: threads, Wal: log, Checkpoint: ck})
	})
	build("partstore", func(db *repro.DB, log *repro.WAL, ck repro.CheckpointConfig) repro.System {
		return repro.NewPartitionedStore(repro.LockingConfig{DB: db, Partitions: threads, Wal: log, Checkpoint: ck})
	})
	return out
}

// submitTransfers pushes n random two-account transfers through the session
// and waits for every acknowledgment, so the caller knows exactly which
// transactions are committed when it returns.
func submitTransfers(ses repro.Session, tbl, n int, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		a := uint64(rng.Intn(64))
		b := uint64(rng.Intn(64))
		for b == a {
			b = uint64(rng.Intn(64))
		}
		tx := &repro.Txn{Ops: []repro.Op{
			{Table: tbl, Key: a, Mode: repro.Write},
			{Table: tbl, Key: b, Mode: repro.Write},
		}}
		tx.SortOps()
		tx.Logic = func(ctx repro.Ctx) error {
			ra, err := ctx.Write(tbl, a)
			if err != nil {
				return err
			}
			rb, err := ctx.Write(tbl, b)
			if err != nil {
				return err
			}
			repro.AddI64(ra, 0, -1)
			repro.AddI64(rb, 0, 1)
			return nil
		}
		ses.Submit(tx, func(bool) { wg.Done() })
	}
	wg.Wait()
}

// requireTableEqual asserts two databases hold byte-identical account tables.
func requireTableEqual(t *testing.T, label string, want *repro.DB, wtbl int, got *repro.DB, gtbl int) {
	t.Helper()
	for k := uint64(0); k < 64; k++ {
		if !bytes.Equal(want.Table(wtbl).Get(k), got.Table(gtbl).Get(k)) {
			t.Fatalf("%s: key %d differs from live state", label, k)
		}
	}
}

// runCheckpointedPhases drives three 200-transfer phases with a fuzzy
// checkpoint forced after phases 1 and 2 (the checkpointer walks the table
// while later submissions are in flight on phase boundaries is not required —
// forcing between phases keeps the LSN bounds deterministic for assertions),
// then closes the session and log, returning the checkpointer's stats.
func runCheckpointedPhases(t *testing.T, e *checkpointedEngine) repro.CheckpointStats {
	t.Helper()
	ses := e.sys.Start()
	submitTransfers(ses, e.tbl, 200, 1)
	if err := repro.ForceCheckpoint(ses); err != nil {
		t.Fatalf("first checkpoint: %v", err)
	}
	submitTransfers(ses, e.tbl, 200, 2)
	if err := repro.ForceCheckpoint(ses); err != nil {
		t.Fatalf("second checkpoint: %v", err)
	}
	submitTransfers(ses, e.tbl, 200, 3)
	ses.Drain()
	stats := ses.(repro.CheckpointedSession).CheckpointStats()
	ses.Close()
	if err := e.log.Close(); err != nil {
		t.Fatal(err)
	}
	if got := sumBalances(e.db, e.tbl, 64); got != 64*1000 {
		t.Fatalf("live sum = %d, want %d", got, 64*1000)
	}
	return stats
}

// Parallel and serial recovery must produce byte-identical state equal to
// the live database, on every engine; recovery must actually use the
// checkpoint, and the second checkpoint must have truncated log segments
// below the first checkpoint's start.
func TestCheckpointRecoveryParallelMatchesSerialOnAllEngines(t *testing.T) {
	for _, e := range checkpointedEngines(t) {
		e := e
		t.Run(e.name, func(t *testing.T) {
			stats := runCheckpointedPhases(t, e)
			if stats.Checkpoints != 2 {
				t.Fatalf("checkpoints = %d, want 2", stats.Checkpoints)
			}
			if stats.TruncatedSegments == 0 {
				t.Fatal("second checkpoint truncated no segments")
			}
			if e.dev.Truncated() == 0 {
				t.Fatal("device reports no truncated segments")
			}
			segs := e.dev.CrashSegments()

			dbSerial, tblSerial := newAccountDB(t, 64, 1000)
			stSerial, err := repro.RecoverWAL(e.store, segs, dbSerial, 1)
			if err != nil {
				t.Fatalf("serial recovery: %v", err)
			}
			dbPar, tblPar := newAccountDB(t, 64, 1000)
			stPar, err := repro.RecoverWAL(e.store, segs, dbPar, runtime.GOMAXPROCS(0))
			if err != nil {
				t.Fatalf("parallel recovery: %v", err)
			}

			for _, r := range []struct {
				label string
				st    repro.RecoverStats
				db    *repro.DB
				tbl   int
			}{{"serial", stSerial, dbSerial, tblSerial}, {"parallel", stPar, dbPar, tblPar}} {
				if !r.st.UsedCheckpoint {
					t.Fatalf("%s recovery ignored the checkpoint", r.label)
				}
				if r.st.Replay.Torn {
					t.Fatalf("%s recovery saw a torn log", r.label)
				}
				// The checkpoint bounds the replay tail: only the phase-3
				// transfers (plus any records the second walk raced past)
				// replay, never the full 600-transaction history.
				if r.st.Replay.Applied >= 600 {
					t.Fatalf("%s recovery replayed %d records; checkpoint did not bound the tail", r.label, r.st.Replay.Applied)
				}
				if got := sumBalances(r.db, r.tbl, 64); got != 64*1000 {
					t.Fatalf("%s recovered sum = %d, want %d", r.label, got, 64*1000)
				}
				requireTableEqual(t, r.label, e.db, e.tbl, r.db, r.tbl)
			}
			if stSerial.Replay.Applied != stPar.Replay.Applied ||
				stSerial.Replay.AppliedLSN != stPar.Replay.AppliedLSN {
				t.Fatalf("serial applied (%d, lsn %d) != parallel applied (%d, lsn %d)",
					stSerial.Replay.Applied, stSerial.Replay.AppliedLSN,
					stPar.Replay.Applied, stPar.Replay.AppliedLSN)
			}
		})
	}
}

// A crash that tears the newest checkpoint — manifest missing, manifest
// corrupt, or a page corrupt — must fall back to the previous checkpoint
// and a longer log tail, never to wrong data. Log truncation only ever
// drops segments below the PREVIOUS checkpoint's start, so the tail the
// fallback needs is still on disk.
func TestTornCheckpointFallsBackToPreviousCheckpoint(t *testing.T) {
	corruptions := []struct {
		name    string
		corrupt func(e *checkpointedEngine)
	}{
		{"manifest-missing", func(e *checkpointedEngine) { e.store.DropNewest() }},
		{"manifest-corrupt", func(e *checkpointedEngine) { e.store.CorruptNewestManifest() }},
		{"page-corrupt", func(e *checkpointedEngine) { e.store.CorruptNewestPage() }},
	}
	for _, c := range corruptions {
		c := c
		t.Run(c.name, func(t *testing.T) {
			e := checkpointedEngines(t)[0] // orthrus; engine choice is irrelevant to store fallback
			runCheckpointedPhases(t, e)
			segs := e.dev.CrashSegments()

			dbIntact, tblIntact := newAccountDB(t, 64, 1000)
			stIntact, err := repro.RecoverWAL(e.store, segs, dbIntact, 2)
			if err != nil {
				t.Fatalf("intact recovery: %v", err)
			}
			manifests := e.store.Manifests()
			if len(manifests) != 2 {
				t.Fatalf("retained %d manifests, want 2", len(manifests))
			}

			c.corrupt(e)
			dbFall, tblFall := newAccountDB(t, 64, 1000)
			stFall, err := repro.RecoverWAL(e.store, segs, dbFall, 2)
			if err != nil {
				t.Fatalf("fallback recovery: %v", err)
			}
			if !stFall.UsedCheckpoint {
				t.Fatal("fallback recovery found no usable checkpoint")
			}
			if stFall.StartLSN != manifests[0].StartLSN {
				t.Fatalf("fallback started at LSN %d, want previous checkpoint's %d", stFall.StartLSN, manifests[0].StartLSN)
			}
			// Falling back one checkpoint means replaying a strictly longer
			// log tail to reach the same state.
			if stFall.Replay.Applied <= stIntact.Replay.Applied {
				t.Fatalf("fallback applied %d records, intact applied %d; fallback tail should be longer",
					stFall.Replay.Applied, stIntact.Replay.Applied)
			}
			if got := sumBalances(dbFall, tblFall, 64); got != 64*1000 {
				t.Fatalf("fallback sum = %d, want %d", got, 64*1000)
			}
			requireTableEqual(t, "intact", e.db, e.tbl, dbIntact, tblIntact)
			requireTableEqual(t, "fallback", e.db, e.tbl, dbFall, tblFall)
		})
	}
}

// A crash in the middle of log truncation leaves an arbitrary subset of the
// truncatable segments deleted. Recovery must not care: every record at or
// below the checkpoint's start LSN is skipped regardless of whether its
// segment survived, so any subset yields the same state.
func TestCrashMidTruncationStillRecovers(t *testing.T) {
	e := checkpointedEngines(t)[0]
	ses := e.sys.Start()
	submitTransfers(ses, e.tbl, 300, 7)
	// One checkpoint only: truncation fires on the NEXT checkpoint, so the
	// full log survives and the test can delete eligible segments itself.
	if err := repro.ForceCheckpoint(ses); err != nil {
		t.Fatal(err)
	}
	submitTransfers(ses, e.tbl, 300, 8)
	ses.Drain()
	ses.Close()
	if err := e.log.Close(); err != nil {
		t.Fatal(err)
	}
	manifests := e.store.Manifests()
	if len(manifests) != 1 {
		t.Fatalf("retained %d manifests, want 1", len(manifests))
	}
	cut := manifests[0].StartLSN

	// Pair each non-empty segment with its LSN bound. After Close all
	// written bytes are synced, so CrashSegments aligns with the non-empty
	// entries of Segments.
	segs := e.dev.CrashSegments()
	var infos []struct {
		maxLSN uint64
		sealed bool
	}
	for _, in := range e.dev.Segments() {
		if in.Bytes > 0 {
			infos = append(infos, struct {
				maxLSN uint64
				sealed bool
			}{in.MaxLSN, in.Sealed})
		}
	}
	if len(infos) != len(segs) {
		t.Fatalf("segment info mismatch: %d infos, %d crash segments", len(infos), len(segs))
	}

	// Simulate a truncation crash: delete every other eligible segment.
	var kept [][]byte
	eligible, dropped := 0, 0
	for i, in := range infos {
		if in.sealed && in.maxLSN <= cut {
			eligible++
			if eligible%2 == 1 {
				dropped++
				continue
			}
		}
		kept = append(kept, segs[i])
	}
	if dropped == 0 {
		t.Fatalf("no truncatable segments below LSN %d; test needs a longer phase 1", cut)
	}

	for _, workers := range []int{1, 4} {
		db, tbl := newAccountDB(t, 64, 1000)
		st, err := repro.RecoverWAL(e.store, kept, db, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !st.UsedCheckpoint {
			t.Fatalf("workers=%d: recovery ignored the checkpoint", workers)
		}
		if st.Replay.Torn {
			t.Fatalf("workers=%d: recovery saw a torn log", workers)
		}
		if got := sumBalances(db, tbl, 64); got != 64*1000 {
			t.Fatalf("workers=%d: sum = %d, want %d", workers, got, 64*1000)
		}
		requireTableEqual(t, "mid-truncation", e.db, e.tbl, db, tbl)
	}
}

// Checkpointing through the on-disk store and segmented file device must
// survive a process "restart": load segments and checkpoint from disk into
// a fresh database and reach the live state.
func TestFileCheckpointAndSegmentsRoundTrip(t *testing.T) {
	dir := t.TempDir()
	dev, err := repro.OpenWALFileSegments(dir+"/wal", 4<<10)
	if err != nil {
		t.Fatal(err)
	}
	log := repro.NewWAL(dev, repro.WALGroup(16, 100*time.Microsecond))
	store, err := repro.OpenDirCheckpointStore(dir + "/ck")
	if err != nil {
		t.Fatal(err)
	}
	db, tbl := newAccountDB(t, 64, 1000)
	eng := repro.NewOrthrus(repro.OrthrusConfig{
		DB: db, CCThreads: 2, ExecThreads: 2, Wal: log,
		Checkpoint: repro.CheckpointConfig{Store: store, Interval: time.Hour},
	})
	ses := eng.Start()
	submitTransfers(ses, tbl, 200, 11)
	if err := repro.ForceCheckpoint(ses); err != nil {
		t.Fatal(err)
	}
	submitTransfers(ses, tbl, 200, 12)
	if err := repro.ForceCheckpoint(ses); err != nil {
		t.Fatal(err)
	}
	submitTransfers(ses, tbl, 200, 13)
	ses.Drain()
	stats := ses.(repro.CheckpointedSession).CheckpointStats()
	ses.Close()
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	if stats.TruncatedSegments == 0 {
		t.Fatal("no segment files truncated")
	}

	segs, err := repro.LoadWALFileSegments(dir + "/wal")
	if err != nil {
		t.Fatal(err)
	}
	store2, err := repro.OpenDirCheckpointStore(dir + "/ck")
	if err != nil {
		t.Fatal(err)
	}
	db2, tbl2 := newAccountDB(t, 64, 1000)
	st, err := repro.RecoverWAL(store2, segs, db2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !st.UsedCheckpoint {
		t.Fatal("recovery ignored the on-disk checkpoint")
	}
	if got := sumBalances(db2, tbl2, 64); got != 64*1000 {
		t.Fatalf("recovered sum = %d, want %d", got, 64*1000)
	}
	requireTableEqual(t, "file-roundtrip", db, tbl, db2, tbl2)
}

// The checkpointer must handle every table class: versioned fixed tables
// (snapshot copy-out), plain fixed tables, ordered grow tables (key
// enumeration), and unordered grow tables (latched copy-out). Build one
// database with all four, run inserts and updates, checkpoint fuzzily,
// and verify recovery reproduces every table byte for byte.
func TestCheckpointCoversAllTableClasses(t *testing.T) {
	build := func() (*repro.DB, [4]int) {
		db := repro.NewDB()
		var ids [4]int
		ids[0] = db.Create(repro.Layout{Name: "fixed", NumRecords: 64, RecordSize: 32})
		ids[1] = db.Create(repro.Layout{Name: "versioned", NumRecords: 64, RecordSize: 32, Versioned: true})
		ids[2] = db.Create(repro.Layout{Name: "ordered", RecordSize: 32, Growable: true, Ordered: true})
		ids[3] = db.Create(repro.Layout{Name: "unordered", RecordSize: 32, Growable: true})
		for k := uint64(0); k < 64; k++ {
			repro.PutI64(db.Table(ids[0]).Get(k), 0, 100)
			repro.PutI64(db.Table(ids[1]).Get(k), 0, 100)
		}
		return db, ids
	}
	db, ids := build()
	dev := repro.NewWALMemSegments(4 << 10)
	log := repro.NewWAL(dev, repro.WALGroup(16, 100*time.Microsecond))
	store := repro.NewMemCheckpointStore()
	eng := repro.NewTwoPL(repro.LockingConfig{
		DB: db, Handler: repro.WaitDie(), Threads: 4, Wal: log,
		Checkpoint: repro.CheckpointConfig{Store: store, Interval: time.Hour, ChunkRecords: 7},
	})
	ses := eng.Start()

	phase := func(round int) {
		var wg sync.WaitGroup
		for i := 0; i < 64; i++ {
			i := i
			key := uint64(round*64 + i)
			wg.Add(1)
			tx := &repro.Txn{Ops: []repro.Op{
				{Table: ids[0], Key: uint64(i), Mode: repro.Write},
				{Table: ids[1], Key: uint64(i), Mode: repro.Write},
			}}
			tx.SortOps()
			tx.Logic = func(ctx repro.Ctx) error {
				ra, err := ctx.Write(ids[0], uint64(i))
				if err != nil {
					return err
				}
				repro.AddI64(ra, 0, 1)
				rb, err := ctx.Write(ids[1], uint64(i))
				if err != nil {
					return err
				}
				repro.AddI64(rb, 0, 1)
				rec := make([]byte, 32)
				repro.PutI64(rec, 0, int64(key))
				if err := ctx.Insert(ids[2], key, rec); err != nil {
					return err
				}
				return ctx.Insert(ids[3], key, rec)
			}
			ses.Submit(tx, func(bool) { wg.Done() })
		}
		wg.Wait()
	}
	phase(0)
	if err := repro.ForceCheckpoint(ses); err != nil {
		t.Fatal(err)
	}
	phase(1)
	ses.Drain()
	ses.Close()
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	db2, ids2 := build()
	st, err := repro.RecoverWAL(store, dev.CrashSegments(), db2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !st.UsedCheckpoint {
		t.Fatal("recovery ignored the checkpoint")
	}
	for c := 0; c < 4; c++ {
		if got, want := db2.Table(ids2[c]).Len(), db.Table(ids[c]).Len(); got != want {
			t.Fatalf("table %d: recovered %d records, live has %d", c, got, want)
		}
	}
	for k := uint64(0); k < 64; k++ {
		for c := 0; c < 2; c++ {
			if !bytes.Equal(db.Table(ids[c]).Get(k), db2.Table(ids2[c]).Get(k)) {
				t.Fatalf("table %d key %d differs after recovery", c, k)
			}
		}
	}
	for k := uint64(0); k < 128; k++ {
		for c := 2; c < 4; c++ {
			if !bytes.Equal(db.Table(ids[c]).Get(k), db2.Table(ids2[c]).Get(k)) {
				t.Fatalf("table %d key %d differs after recovery", c, k)
			}
		}
	}
}

// Versioned-table chunks are imaged through snapshot reads at the WAL's
// DURABLE frontier, which lags assigned LSNs under async/group commit.
// The checkpointer must force the frontier up to StartLSN before walking:
// a chunk snapshotted below StartLSN omits durable updates that replay —
// which starts past StartLSN — never re-applies, silently losing
// acknowledged transactions. This test pins the lag deterministically: an
// async policy whose group trigger and fill window are unreachable keeps
// the durable frontier at 0 until the checkpoint itself forces it.
func TestCheckpointStartLSNCoversDurableFrontierLag(t *testing.T) {
	build := func() (*repro.DB, int) {
		db := repro.NewDB()
		tbl := db.Create(repro.Layout{Name: "accounts", NumRecords: 64, RecordSize: 64, Versioned: true})
		// Populate through Insert — the load path — so each row's base
		// version holds the loaded image and snapshot reads of keys no
		// transfer ever touches resolve to it, not to the zero image.
		rec := make([]byte, 64)
		repro.PutI64(rec, 0, 1000)
		for k := uint64(0); k < 64; k++ {
			if err := db.Table(tbl).Insert(k, rec); err != nil {
				t.Fatal(err)
			}
		}
		return db, tbl
	}
	db, tbl := build()
	dev := repro.NewWALMemSegments(4 << 10)
	policy := repro.WALAsync()
	policy.GroupSize = 1 << 30
	policy.Interval = time.Hour
	log := repro.NewWAL(dev, policy)
	store := repro.NewMemCheckpointStore()
	eng := repro.NewTwoPL(repro.LockingConfig{
		DB: db, Handler: repro.WaitDie(), Threads: 4, Wal: log,
		Checkpoint: repro.CheckpointConfig{Store: store, Interval: time.Hour, ChunkRecords: 7},
	})
	ses := eng.Start()
	submitTransfers(ses, tbl, 100, 21)
	if got, last := log.DurableLSN(), log.LastLSN(); got != 0 || last == 0 {
		t.Fatalf("durable frontier %d (last assigned %d); the lag this test pins is gone", got, last)
	}
	if err := repro.ForceCheckpoint(ses); err != nil {
		t.Fatal(err)
	}
	ses.Drain()
	ses.Close()
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	manifests := store.Manifests()
	if len(manifests) != 1 {
		t.Fatalf("retained %d manifests, want 1", len(manifests))
	}
	db2, tbl2 := build()
	st, err := repro.RecoverWAL(store, dev.CrashSegments(), db2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !st.UsedCheckpoint {
		t.Fatal("recovery ignored the checkpoint")
	}
	if got := sumBalances(db2, tbl2, 64); got != 64*1000 {
		t.Fatalf("recovered sum = %d, want %d", got, 64*1000)
	}
	requireTableEqual(t, "frontier-lag", db, tbl, db2, tbl2)
}

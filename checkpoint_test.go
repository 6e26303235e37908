package repro_test

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro"
	"repro/internal/engine"
	"repro/internal/wal"
)

// checkpointedEngine bundles one engine built over a segmented WAL and an
// in-memory checkpoint store, ready for crash-recovery tests.
type checkpointedEngine struct {
	name  string
	sys   repro.Engine
	db    *repro.DB
	tbl   int
	dev   *wal.MemSegments
	log   *wal.Log
	store interface {
		wal.CheckpointStore
		Manifests() []wal.Manifest
		DropNewest()
		CorruptNewestManifest()
		CorruptNewestPage()
	}
}

// checkpointedEngines builds every system over a fresh 64-account database
// and a checkpointer configured for manual ForceCheckpoint control. The
// WAL device rotates at 1 byte, below one record, so every flush pass
// that writes seals its own segment: which segments a checkpoint can
// truncate then follows from which acknowledgments the test waited for,
// not from how the flusher happened to group records into passes.
func checkpointedEngines(t testing.TB) []*checkpointedEngine {
	t.Helper()
	const threads = 4
	var out []*checkpointedEngine
	build := func(name string, f func(db *repro.DB, log *wal.Log, ck engine.CheckpointConfig) repro.Engine) {
		db, tbl := newAccountDB(t, 64, 1000)
		dev := wal.NewMemSegments(1)
		log := wal.NewLog(dev, wal.Group(16, 100*time.Microsecond))
		store := wal.NewMemCheckpointStore()
		ck := engine.CheckpointConfig{Store: store, Interval: time.Hour}
		out = append(out, &checkpointedEngine{
			name: name, sys: f(db, log, ck), db: db, tbl: tbl, dev: dev, log: log, store: store,
		})
	}
	build("orthrus", func(db *repro.DB, log *wal.Log, ck engine.CheckpointConfig) repro.Engine {
		return repro.NewOrthrus(repro.OrthrusConfig{DB: db, CCThreads: 2, ExecThreads: 2, Wal: log, Checkpoint: ck})
	})
	build("dlfree", func(db *repro.DB, log *wal.Log, ck engine.CheckpointConfig) repro.Engine {
		return repro.NewDeadlockFree(repro.LockingConfig{DB: db, Threads: threads, Wal: log, Checkpoint: ck})
	})
	build("twopl", func(db *repro.DB, log *wal.Log, ck engine.CheckpointConfig) repro.Engine {
		return repro.NewTwoPL(repro.LockingConfig{DB: db, Handler: repro.WaitDie(), Threads: threads, Wal: log, Checkpoint: ck})
	})
	build("partstore", func(db *repro.DB, log *wal.Log, ck engine.CheckpointConfig) repro.Engine {
		return repro.NewPartitionedStore(repro.LockingConfig{DB: db, Partitions: threads, Wal: log, Checkpoint: ck})
	})
	return out
}

// submitTransfers pushes n random two-account transfers through the session
// and waits for every acknowledgment, so the caller knows exactly which
// transactions are committed when it returns.
func submitTransfers(ses engine.Session, tbl, n int, seed int64) {
	startTransfers(ses, tbl, n, seed)()
}

// startTransfers submits what submitTransfers does and returns the wait
// for their acknowledgments instead of calling it.
func startTransfers(ses engine.Session, tbl, n int, seed int64) (wait func()) {
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
	return wg.Wait
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

// checkpointedRun is what runCheckpointedPhases observed.
type checkpointedRun struct {
	stats    engine.CheckpointStats // at the end
	first    engine.CheckpointStats // just after the first checkpoint
	lastLSN1 uint64                 // the log's last LSN once phase 1 was acknowledged
	// The device's non-empty segments just after the first checkpoint:
	// how many, how many of them sealed, and their highest MaxLSN.
	segs1, sealed1 int
	maxLSN1        uint64
}

// runCheckpointedPhases drives three 200-transfer phases with a
// checkpoint forced after phases 1 and 2, then closes the session and
// log.
func runCheckpointedPhases(t *testing.T, e *checkpointedEngine) checkpointedRun {
	t.Helper()
	var run checkpointedRun
	ses := e.sys.Start()
	cs := ses.(engine.CheckpointedSession)
	submitTransfers(ses, e.tbl, 200, 1)
	run.lastLSN1 = e.log.LastLSN()
	if err := engine.ForceCheckpoint(ses); err != nil {
		t.Fatalf("first checkpoint: %v", err)
	}
	run.first = cs.CheckpointStats()
	for _, in := range e.dev.Segments() {
		if in.Bytes > 0 {
			run.segs1++
			if in.Sealed {
				run.sealed1++
			}
			run.maxLSN1 = max(run.maxLSN1, in.MaxLSN)
		}
	}
	submitTransfers(ses, e.tbl, 200, 2)
	if err := engine.ForceCheckpoint(ses); err != nil {
		t.Fatalf("second checkpoint: %v", err)
	}
	submitTransfers(ses, e.tbl, 200, 3)
	ses.Drain()
	run.stats = cs.CheckpointStats()
	ses.Close()
	if err := e.log.Close(); err != nil {
		t.Fatal(err)
	}
	if got := sumBalances(e.db, e.tbl, 64); got != 64*1000 {
		t.Fatalf("live sum = %d, want %d", got, 64*1000)
	}
	return run
}

// Recovery from the checkpoints rebuilds the live state byte for byte on
// every engine, starts at the newest image and replays only the log above
// it; the first image is exact as of the log's last LSN after phase 1,
// and the second checkpoint truncates every segment that image covers.
//
// The truncation count holds by construction, not by flush timing. The
// device rotates at 1 byte, so each flush pass that writes seals its own
// segment in Mark, right after its Sync; an acknowledgment fires only
// after its pass's Sync and Mark; and submitTransfers waits for every
// acknowledgment. So when the first checkpoint is forced, every LSN up to
// log.LastLSN() lies in a sealed segment, no higher LSN exists, and the
// active segment is empty: the image is exact as of LastLSN, and every
// non-empty segment holds only LSNs at or below it. Phase 2's passes hold
// only higher LSNs, so the second checkpoint, which truncates below the
// first image, drops exactly the segments present after the first.
func TestCheckpointBoundsRecoveryOnAllEngines(t *testing.T) {
	for _, e := range checkpointedEngines(t) {
		e := e
		t.Run(e.name, func(t *testing.T) {
			run := runCheckpointedPhases(t, e)
			if run.stats.Checkpoints != 2 {
				t.Fatalf("checkpoints = %d, want 2", run.stats.Checkpoints)
			}
			image1 := run.first.LastStartLSN
			if image1 != run.lastLSN1 {
				t.Fatalf("first image at LSN %d, want the log's last LSN after phase 1, %d", image1, run.lastLSN1)
			}
			if run.first.TruncatedSegments != 0 {
				t.Fatalf("first checkpoint truncated %d segments; no image precedes it", run.first.TruncatedSegments)
			}
			if run.segs1 == 0 || run.sealed1 != run.segs1 || run.maxLSN1 > image1 {
				t.Fatalf("after the first checkpoint %d of %d non-empty segments are sealed, highest MaxLSN %d; want at least one, all sealed at or below LSN %d",
					run.sealed1, run.segs1, run.maxLSN1, image1)
			}
			if got := run.stats.TruncatedSegments - run.first.TruncatedSegments; got != uint64(run.segs1) {
				t.Fatalf("second checkpoint truncated %d segments, want the %d at or below the first image", got, run.segs1)
			}
			if got := e.dev.Truncated(); got != run.segs1 {
				t.Fatalf("device reports %d truncated segments, want %d", got, run.segs1)
			}

			db, tbl := newAccountDB(t, 64, 1000)
			st, err := wal.Recover(e.store, e.dev.CrashSegments(), db)
			if err != nil {
				t.Fatalf("recovery: %v", err)
			}
			if !st.UsedCheckpoint || st.StartLSN != run.stats.LastStartLSN {
				t.Fatalf("recovery used checkpoint %t at LSN %d, want the newest image at %d",
					st.UsedCheckpoint, st.StartLSN, run.stats.LastStartLSN)
			}
			if st.Replay.Torn {
				t.Fatal("recovery saw a torn log")
			}
			// The checkpoint bounds the replay tail: only the phase-3
			// transfers replay, never the full 600-transaction history.
			if st.Replay.Applied >= 600 {
				t.Fatalf("recovery replayed %d records; checkpoint did not bound the tail", st.Replay.Applied)
			}
			if st.Replay.AppliedLSN != e.log.LastLSN() {
				t.Fatalf("recovery replayed through LSN %d, want the log's last, %d", st.Replay.AppliedLSN, e.log.LastLSN())
			}
			if got := sumBalances(db, tbl, 64); got != 64*1000 {
				t.Fatalf("recovered sum = %d, want %d", got, 64*1000)
			}
			requireTableEqual(t, "recovered", e.db, e.tbl, db, tbl)
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
			stIntact, err := wal.Recover(e.store, segs, dbIntact)
			if err != nil {
				t.Fatalf("intact recovery: %v", err)
			}
			manifests := e.store.Manifests()
			if len(manifests) != 2 {
				t.Fatalf("retained %d manifests, want 2", len(manifests))
			}

			c.corrupt(e)
			dbFall, tblFall := newAccountDB(t, 64, 1000)
			stFall, err := wal.Recover(e.store, segs, dbFall)
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
	if err := engine.ForceCheckpoint(ses); err != nil {
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

	db, tbl := newAccountDB(t, 64, 1000)
	st, err := wal.Recover(e.store, kept, db)
	if err != nil {
		t.Fatal(err)
	}
	if !st.UsedCheckpoint {
		t.Fatal("recovery ignored the checkpoint")
	}
	if st.Replay.Torn {
		t.Fatal("recovery saw a torn log")
	}
	if got := sumBalances(db, tbl, 64); got != 64*1000 {
		t.Fatalf("sum = %d, want %d", got, 64*1000)
	}
	requireTableEqual(t, "mid-truncation", e.db, e.tbl, db, tbl)
}

// Checkpointing through the on-disk store and segmented file device must
// survive a process "restart": load segments and checkpoint from disk into
// a fresh database and reach the live state. The device rotates at 1
// byte, as checkpointedEngines' does, so the second checkpoint truncates
// phase 1's files whatever the flush timing.
func TestFileCheckpointAndSegmentsRoundTrip(t *testing.T) {
	dir := t.TempDir()
	dev, err := wal.OpenFileSegments(dir+"/wal", 1)
	if err != nil {
		t.Fatal(err)
	}
	log := wal.NewLog(dev, wal.Group(16, 100*time.Microsecond))
	store, err := wal.OpenDirCheckpointStore(dir + "/ck")
	if err != nil {
		t.Fatal(err)
	}
	db, tbl := newAccountDB(t, 64, 1000)
	eng := repro.NewOrthrus(repro.OrthrusConfig{
		DB: db, CCThreads: 2, ExecThreads: 2, Wal: log,
		Checkpoint: engine.CheckpointConfig{Store: store, Interval: time.Hour},
	})
	ses := eng.Start()
	submitTransfers(ses, tbl, 200, 11)
	if err := engine.ForceCheckpoint(ses); err != nil {
		t.Fatal(err)
	}
	submitTransfers(ses, tbl, 200, 12)
	if err := engine.ForceCheckpoint(ses); err != nil {
		t.Fatal(err)
	}
	submitTransfers(ses, tbl, 200, 13)
	ses.Drain()
	stats := ses.(engine.CheckpointedSession).CheckpointStats()
	ses.Close()
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	if stats.TruncatedSegments == 0 {
		t.Fatal("no segment files truncated")
	}

	segs, err := wal.LoadFileSegments(dir + "/wal")
	if err != nil {
		t.Fatal(err)
	}
	store2, err := wal.OpenDirCheckpointStore(dir + "/ck")
	if err != nil {
		t.Fatal(err)
	}
	db2, tbl2 := newAccountDB(t, 64, 1000)
	st, err := wal.Recover(store2, segs, db2)
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

// The checkpointer must handle every table class: versioned fixed
// tables, plain fixed tables, ordered grow tables and unordered grow
// tables. Build one database with all four, run inserts and updates,
// checkpoint, and verify recovery reproduces every table byte for byte.
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
	dev := wal.NewMemSegments(4 << 10)
	log := wal.NewLog(dev, wal.Group(16, 100*time.Microsecond))
	store := wal.NewMemCheckpointStore()
	eng := repro.NewTwoPL(repro.LockingConfig{
		DB: db, Handler: repro.WaitDie(), Threads: 4, Wal: log,
		Checkpoint: engine.CheckpointConfig{Store: store, Interval: time.Hour},
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
	if err := engine.ForceCheckpoint(ses); err != nil {
		t.Fatal(err)
	}
	phase(1)
	ses.Drain()
	ses.Close()
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	db2, ids2 := build()
	st, err := wal.Recover(store, dev.CrashSegments(), db2)
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

// A checkpointer starts from the store's newest image, never from LSN 0:
// an earlier session over the same log may have truncated the segments
// below it. Session 1 checkpoints twice, so its second checkpoint
// truncates; session 2, a new engine over the same database, log and
// store, runs more transfers and checkpoints once. Recovery must use that
// last image and reach the live state. The device rotates at 1 byte, as
// checkpointedEngines' does, so session 1's truncation does not depend
// on flush timing.
func TestCheckpointContinuesAcrossSessions(t *testing.T) {
	db, tbl := newAccountDB(t, 64, 1000)
	dev := wal.NewMemSegments(1)
	log := wal.NewLog(dev, wal.Group(0, 0))
	store := wal.NewMemCheckpointStore()
	newEngine := func() repro.Engine {
		return repro.NewOrthrus(repro.OrthrusConfig{DB: db, CCThreads: 2, ExecThreads: 2, Wal: log,
			Checkpoint: engine.CheckpointConfig{Store: store, Interval: time.Hour}})
	}

	ses := newEngine().Start()
	submitTransfers(ses, tbl, 300, 31)
	if err := engine.ForceCheckpoint(ses); err != nil {
		t.Fatal(err)
	}
	submitTransfers(ses, tbl, 300, 32)
	if err := engine.ForceCheckpoint(ses); err != nil {
		t.Fatal(err)
	}
	ses.Drain()
	ses.Close()
	if dev.Truncated() == 0 {
		t.Fatal("session 1 truncated no segments")
	}
	first := store.Manifests()

	ses = newEngine().Start()
	submitTransfers(ses, tbl, 300, 33)
	if err := engine.ForceCheckpoint(ses); err != nil {
		t.Fatal(err)
	}
	ses.Drain()
	ses.Close()
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	last := store.Manifests()
	if got, prev := last[len(last)-1].StartLSN, first[len(first)-1].StartLSN; got <= prev {
		t.Fatalf("session 2's image is at LSN %d, not past session 1's %d", got, prev)
	}

	db2, tbl2 := newAccountDB(t, 64, 1000)
	st, err := wal.Recover(store, dev.CrashSegments(), db2)
	if err != nil {
		t.Fatal(err)
	}
	if !st.UsedCheckpoint || st.StartLSN != last[len(last)-1].StartLSN {
		t.Fatalf("recovery used checkpoint %t at LSN %d, want the newest image at %d",
			st.UsedCheckpoint, st.StartLSN, last[len(last)-1].StartLSN)
	}
	if st.Replay.Torn {
		t.Fatal("recovery saw a torn log")
	}
	if got := sumBalances(db2, tbl2, 64); got != 64*1000 {
		t.Fatalf("recovered sum = %d, want %d", got, 64*1000)
	}
	requireTableEqual(t, "across-sessions", db, tbl, db2, tbl2)
}

// The ticker's checkpoints compact sealed segments while the flusher is
// still writing, sealing and rotating the log under live transfers; under
// -race this is the hand-off between the two goroutines. Recovery from
// the newest image must still reach the live state.
func TestCheckpointConcurrentWithCommitsRecovers(t *testing.T) {
	db, tbl := newAccountDB(t, 64, 1000)
	dev := wal.NewMemSegments(2 << 10)
	log := wal.NewLog(dev, wal.Group(0, 0))
	store := wal.NewMemCheckpointStore()
	eng := repro.NewOrthrus(repro.OrthrusConfig{DB: db, CCThreads: 2, ExecThreads: 2, Wal: log,
		Checkpoint: engine.CheckpointConfig{Store: store, Interval: time.Millisecond}})
	ses := eng.Start()
	ck := ses.(engine.CheckpointedSession)
	for round := int64(0); ck.CheckpointStats().Checkpoints < 3 || round < 4; round++ {
		submitTransfers(ses, tbl, 200, 40+round)
	}
	ses.Drain()
	stats := ck.CheckpointStats()
	ses.Close()
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	if stats.Failed != 0 || stats.TruncatedSegments == 0 {
		t.Fatalf("checkpointer stats %+v: want no failures and some truncation", stats)
	}
	db2, tbl2 := newAccountDB(t, 64, 1000)
	st, err := wal.Recover(store, dev.CrashSegments(), db2)
	if err != nil {
		t.Fatal(err)
	}
	if !st.UsedCheckpoint || st.Replay.Torn {
		t.Fatalf("recovery %+v: want the checkpoint and an untorn tail", st)
	}
	requireTableEqual(t, "concurrent", db, tbl, db2, tbl2)
}

package repro_test

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro"
	"repro/internal/engine"
	"repro/internal/wal"
	"repro/internal/workload"
)

// Hot-path allocation regression tests: a steady-state transfer
// transaction must perform zero heap allocations from Submit to the
// completion acknowledgment on every engine — WAL off or self-clocked
// group commit — and a small bounded number under a timed fill window
// (the window's timer). These tests pin the
// PR's pooling work — any new per-transaction allocation (a closure, a
// fresh plan slice, an unpooled wrapper) fails them immediately.

// allocSystems builds the four-engine lineup over a tiny account table.
func allocSystems(t testing.TB, wl *wal.Log) []struct {
	rt  repro.Engine
	db  *repro.DB
	tbl int
} {
	t.Helper()
	return allocLineup(wl, func() (*repro.DB, int) { return newAccountDB(t, 64, 1000) })
}

// allocLineup builds the four-engine lineup, each over its own newDB.
func allocLineup(wl *wal.Log, newDB func() (*repro.DB, int)) []struct {
	rt  repro.Engine
	db  *repro.DB
	tbl int
} {
	const threads = 2
	type entry = struct {
		rt  repro.Engine
		db  *repro.DB
		tbl int
	}
	var out []entry
	build := func(f func(db *repro.DB) repro.Engine) {
		db, tbl := newDB()
		out = append(out, entry{f(db), db, tbl})
	}
	build(func(db *repro.DB) repro.Engine {
		return repro.NewOrthrus(repro.OrthrusConfig{DB: db, CCThreads: 2, ExecThreads: 2, Wal: wl})
	})
	build(func(db *repro.DB) repro.Engine {
		return repro.NewTwoPL(repro.LockingConfig{DB: db, Handler: repro.WaitDie(), Threads: threads, Wal: wl})
	})
	build(func(db *repro.DB) repro.Engine {
		return repro.NewDeadlockFree(repro.LockingConfig{DB: db, Threads: threads, Wal: wl})
	})
	build(func(db *repro.DB) repro.Engine {
		return repro.NewPartitionedStore(repro.LockingConfig{DB: db, Partitions: threads, Wal: wl})
	})
	return out
}

// measureSubmitAllocs drives one transaction at a time through ses and
// returns the steady-state allocations per Submit→ack round trip. The
// warmup loop lets every pool, scratch slice and lock-table entry reach
// its high-water mark first; the explicit GC empties sync.Pool victim
// caches so a collection during measurement cannot manufacture refills.
func measureSubmitAllocs(ses engine.Session, src workload.Source) float64 {
	rng := rand.New(rand.NewSource(1))
	ch := make(chan struct{}, 1)
	done := func(bool) { ch <- struct{}{} }
	submitOne := func() {
		ses.Submit(src.Next(0, rng), done)
		<-ch
	}
	for i := 0; i < 500; i++ {
		submitOne()
	}
	runtime.GC()
	return testing.AllocsPerRun(200, submitOne)
}

// TestSubmitAllocsZero: with durability off, the Submit→ack hot path of
// every engine is allocation-free in steady state, both for transfers and
// for the pooled 10-op hot/cold YCSB transaction the benchmark runs.
func TestSubmitAllocsZero(t *testing.T) {
	if raceEnabled {
		t.Skip("race mode: sync.Pool drops Puts by design, allocation counts are not meaningful")
	}
	for _, e := range allocSystems(t, nil) {
		t.Run(e.rt.Name(), func(t *testing.T) {
			ses := e.rt.Start()
			for _, src := range []workload.Source{
				&workload.Transfer{Table: e.tbl, NumRecords: 64},
				&repro.YCSB{Table: e.tbl, NumRecords: 64, OpsPerTxn: 10, HotRecords: 8, HotOps: 2},
			} {
				if allocs := measureSubmitAllocs(ses, src); allocs != 0 {
					t.Errorf("%s: %T: %.1f allocs per Submit→ack, want 0", e.rt.Name(), src, allocs)
				}
			}
			ses.Drain()
			ses.Close()
		})
	}
}

// TestReadOnlySubmitAllocsZero: a read-only transaction on a versioned
// table takes every engine's snapshot path — ORTHRUS's grouped admission,
// the locking presets' group of one — and its Submit→ack allocates
// nothing in steady state.
func TestReadOnlySubmitAllocsZero(t *testing.T) {
	if raceEnabled {
		t.Skip("race mode: sync.Pool drops Puts by design, allocation counts are not meaningful")
	}
	const n = 64
	newDB := func() (*repro.DB, int) {
		db := repro.NewDB()
		return db, db.Create(repro.Layout{Name: "versioned", NumRecords: n, RecordSize: 64, Versioned: true})
	}
	for _, e := range allocLineup(nil, newDB) {
		t.Run(e.rt.Name(), func(t *testing.T) {
			ses := e.rt.Start()
			src := &repro.YCSB{Table: e.tbl, NumRecords: n, OpsPerTxn: 10, ReadOnlyPct: 100}
			allocs := measureSubmitAllocs(ses, src)
			ses.Drain()
			res := ses.Close()
			if snap := res.Totals.SnapTxns; snap == 0 {
				t.Fatalf("%s: no snapshot transactions ran; the pin tests the locking path", e.rt.Name())
			}
			if allocs != 0 {
				t.Errorf("%s: %.1f allocs per read-only Submit→ack, want 0", e.rt.Name(), allocs)
			}
		})
	}
}

// walAllocPolicies are the group-commit policies the allocation pins run
// under, each with the per-transaction bound its path meets. Self-clocked
// group commit arms no timer and files acks by value in the flusher's
// reorder window, so a durable Submit→ack allocates nothing, like the
// log-less path (the device writes into pre-sized, recycled segments and
// allocates only to raise its high-water of live ones; AllocsPerRun
// truncates, so a checkpoint's handful of cold-path objects amortize to
// zero). A windowed group additionally allocates one time.Timer per flush
// pass — with one transaction in flight, one per commit: 3–5 objects
// measured.
var walAllocPolicies = []struct {
	name   string
	policy wal.SyncPolicy
	bound  float64
}{
	{"self-clocked", wal.Group(0, 0), 0},
	{"window", wal.Group(4, time.Millisecond), 16},
}

// TestSubmitAllocsWALBounded: group-commit durability may allocate, but
// the per-transaction count must stay small and constant — a leak of one
// object per commit through the WAL path would show up here long before
// it shows up in a heap profile.
func TestSubmitAllocsWALBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("race mode: sync.Pool drops Puts by design, allocation counts are not meaningful")
	}
	for _, p := range walAllocPolicies {
		for _, e := range allocSystems(t, wal.NewLog(wal.NewMemSegments(0), p.policy)) {
			t.Run(p.name+"/"+e.rt.Name(), func(t *testing.T) {
				ses := e.rt.Start()
				src := &workload.Transfer{Table: e.tbl, NumRecords: 64}
				allocs := measureSubmitAllocs(ses, src)
				ses.Drain()
				ses.Close()
				if allocs > p.bound {
					t.Errorf("%s: %.1f allocs per durable Submit→ack, want <= %.0f", e.rt.Name(), allocs, p.bound)
				}
			})
		}
	}
}

// TestSubmitAllocsWithCheckpointerBounded: a live checkpointer —
// compacting the log, sealing pages, committing manifests and truncating
// segments every few milliseconds while the measurement runs — must not
// add allocations to the Submit→ack hot path beyond the WAL bound. The
// checkpointer's own cold-path allocations (page copies into the store,
// manifest encoding: ~8 objects per cycle on this table) amortize across
// the 200 measured ops to under one, which AllocsPerRun reports as zero;
// anything per-transaction would blow straight through either bound.
func TestSubmitAllocsWithCheckpointerBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("race mode: sync.Pool drops Puts by design, allocation counts are not meaningful")
	}
	const n, threads = 64, 2
	type entry struct {
		rt  repro.Engine
		db  *repro.DB
		tbl int
	}
	for _, p := range walAllocPolicies {
		var systems []entry
		build := func(f func(db *repro.DB, wl *wal.Log, ck engine.CheckpointConfig) repro.Engine) {
			db, tbl := newAccountDB(t, n, 1000)
			wl := wal.NewLog(wal.NewMemSegments(64<<10), p.policy)
			ck := engine.CheckpointConfig{Store: wal.NewMemCheckpointStore(), Interval: 5 * time.Millisecond}
			systems = append(systems, entry{f(db, wl, ck), db, tbl})
		}
		build(func(db *repro.DB, wl *wal.Log, ck engine.CheckpointConfig) repro.Engine {
			return repro.NewOrthrus(repro.OrthrusConfig{DB: db, CCThreads: 2, ExecThreads: 2, Wal: wl, Checkpoint: ck})
		})
		build(func(db *repro.DB, wl *wal.Log, ck engine.CheckpointConfig) repro.Engine {
			return repro.NewTwoPL(repro.LockingConfig{DB: db, Handler: repro.WaitDie(), Threads: threads, Wal: wl, Checkpoint: ck})
		})
		build(func(db *repro.DB, wl *wal.Log, ck engine.CheckpointConfig) repro.Engine {
			return repro.NewDeadlockFree(repro.LockingConfig{DB: db, Threads: threads, Wal: wl, Checkpoint: ck})
		})
		build(func(db *repro.DB, wl *wal.Log, ck engine.CheckpointConfig) repro.Engine {
			return repro.NewPartitionedStore(repro.LockingConfig{DB: db, Partitions: threads, Wal: wl, Checkpoint: ck})
		})
		for _, e := range systems {
			t.Run(p.name+"/"+e.rt.Name(), func(t *testing.T) {
				ses := e.rt.Start()
				src := &workload.Transfer{Table: e.tbl, NumRecords: 64}
				// Measure until a measurement spans a checkpoint: how many
				// 5 ms intervals 700 round trips cover is the machine's
				// business (under GOMAXPROCS=1 the fastest engines finish
				// inside one), so wait for the event, not the clock.
				ck := ses.(engine.CheckpointedSession)
				var allocs float64
				ran := false
				for attempt := 0; attempt < 100 && !ran; attempt++ {
					before := ck.CheckpointStats().Checkpoints
					allocs = measureSubmitAllocs(ses, src)
					ran = ck.CheckpointStats().Checkpoints > before
				}
				ses.Drain()
				ses.Close()
				if !ran {
					t.Fatalf("%s: checkpointer never ran during the measurement", e.rt.Name())
				}
				if allocs > p.bound {
					t.Errorf("%s: %.1f allocs per Submit→ack with live checkpointer, want <= %.0f", e.rt.Name(), allocs, p.bound)
				}
			})
		}
	}
}

// TestPoolReuseSafety proves the recycling protocol under the race
// detector: for every submission, Free must run exactly once, and only
// after the completion callback (the engine's last-observer contract).
// Each engine runs with the WAL off and under self-clocked group commit,
// where the acknowledgment — and the transaction's recycling — moves to
// the flusher. Running many concurrent submitters under -race
// additionally checks that no engine structure still touches a
// transaction after handing it back to the pool — any such access races
// with the next life's generator writes.
func TestPoolReuseSafety(t *testing.T) {
	log := wal.NewLog(wal.NewMemSegments(0), wal.Group(0, 0))
	defer log.Close()
	for _, wl := range []*wal.Log{nil, log} {
		prefix := ""
		if wl != nil {
			prefix = "wal/"
		}
		for _, e := range allocSystems(t, wl) {
			t.Run(prefix+e.rt.Name(), func(t *testing.T) { poolReuseRun(t, e.rt, e.db, e.tbl) })
		}
	}
}

func poolReuseRun(t *testing.T, rt repro.Engine, db *repro.DB, tbl int) {
	const submitters, perSubmitter = 4, 300
	src := &workload.Transfer{Table: tbl, NumRecords: 64}
	ses := rt.Start()

	type life struct {
		fired atomic.Bool
		frees atomic.Int32
	}
	lives := make([][perSubmitter]life, submitters)
	var bases sync.Map // container → its pool-bound Free
	var completions sync.WaitGroup
	completions.Add(submitters * perSubmitter)
	var early atomic.Int64 // Free calls before the completion callback
	var wg sync.WaitGroup
	for s := 0; s < submitters; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(s)))
			for i := 0; i < perSubmitter; i++ {
				tx := src.Next(s, rng)
				l := &lives[s][i]
				base, _ := bases.LoadOrStore(tx, tx.Free)
				free := base.(func())
				// Interpose on Free to count this life's calls. Only the
				// first recycles; the interposer stays installed until the
				// container's next life replaces it, so a stray second
				// Free — even one arriving after the container was reused
				// — is counted against some life.
				tx.Free = func() {
					if !l.fired.Load() {
						early.Add(1)
					}
					if l.frees.Add(1) == 1 {
						free()
					}
				}
				ses.Submit(tx, func(bool) {
					l.fired.Store(true)
					completions.Done()
				})
			}
		}(s)
	}
	wg.Wait()
	ses.Drain()
	completions.Wait()
	ses.Close()
	// Hand the pool back its own Free, so later tests see no interposer.
	bases.Range(func(tx, free any) bool {
		tx.(*repro.Txn).Free = free.(func())
		return true
	})

	if n := early.Load(); n != 0 {
		t.Errorf("%s: %d transactions were freed before their completion callback fired", rt.Name(), n)
	}
	for s := range lives {
		for i := range lives[s] {
			if n := lives[s][i].frees.Load(); n != 1 {
				t.Errorf("%s: submission %d/%d reached Free %d times, want exactly 1", rt.Name(), s, i, n)
			}
		}
	}
	if got := sumBalances(db, tbl, 64); got != 64*1000 {
		t.Errorf("%s: sum = %d, want %d (recycled transaction corrupted execution)", rt.Name(), got, 64*1000)
	}
}

// BenchmarkSubmitAllocs is the benchgate-tracked form of the zero-alloc
// guarantee: allocs/op must stay 0 (WAL off, transfer mix) on every
// engine. The CI gate compares allocs/op absolutely, so any regression
// fails the build even if ns/op improves.
func BenchmarkSubmitAllocs(b *testing.B) {
	for _, e := range allocSystems(b, nil) {
		b.Run(e.rt.Name(), func(b *testing.B) {
			ses := e.rt.Start()
			defer ses.Close()
			src := &workload.Transfer{Table: e.tbl, NumRecords: 64}
			rng := rand.New(rand.NewSource(1))
			ch := make(chan struct{}, 1)
			done := func(bool) { ch <- struct{}{} }
			for i := 0; i < 500; i++ {
				ses.Submit(src.Next(0, rng), done)
				<-ch
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ses.Submit(src.Next(0, rng), done)
				<-ch
			}
			b.StopTimer()
			ses.Drain()
		})
	}
}

package repro_test

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro"
)

// Hot-path allocation regression tests: a steady-state transfer
// transaction must perform zero heap allocations from Submit to the
// completion acknowledgment on every engine — WAL off or self-clocked
// group commit — and a small bounded number under a timed fill window
// (the window's timer). These tests pin the
// PR's pooling work — any new per-transaction allocation (a closure, a
// fresh plan slice, an unpooled wrapper) fails them immediately.

// allocSystems builds the four-engine lineup over a tiny account table.
func allocSystems(t testing.TB, wal *repro.WAL) []struct {
	rt  repro.System
	db  *repro.DB
	tbl int
} {
	t.Helper()
	const n, threads = 64, 2
	type entry = struct {
		rt  repro.System
		db  *repro.DB
		tbl int
	}
	var out []entry
	build := func(f func(db *repro.DB) repro.System) {
		db, tbl := newAccountDB(t, n, 1000)
		out = append(out, entry{f(db), db, tbl})
	}
	build(func(db *repro.DB) repro.System {
		return repro.NewOrthrus(repro.OrthrusConfig{DB: db, CCThreads: 2, ExecThreads: 2, Wal: wal})
	})
	build(func(db *repro.DB) repro.System {
		return repro.NewTwoPL(repro.LockingConfig{DB: db, Handler: repro.WaitDie(), Threads: threads, Wal: wal})
	})
	build(func(db *repro.DB) repro.System {
		return repro.NewDeadlockFree(repro.LockingConfig{DB: db, Threads: threads, Wal: wal})
	})
	build(func(db *repro.DB) repro.System {
		return repro.NewPartitionedStore(repro.LockingConfig{DB: db, Partitions: threads, Wal: wal})
	})
	return out
}

// measureSubmitAllocs drives one transaction at a time through ses and
// returns the steady-state allocations per Submit→ack round trip. The
// warmup loop lets every pool, scratch slice and lock-table entry reach
// its high-water mark first; the explicit GC empties sync.Pool victim
// caches so a collection during measurement cannot manufacture refills.
func measureSubmitAllocs(ses repro.Session, src repro.Source) float64 {
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
// every engine is allocation-free in steady state.
func TestSubmitAllocsZero(t *testing.T) {
	if raceEnabled {
		t.Skip("race mode: sync.Pool drops Puts by design, allocation counts are not meaningful")
	}
	for _, e := range allocSystems(t, nil) {
		t.Run(e.rt.Name(), func(t *testing.T) {
			ses := e.rt.Start()
			src := &repro.Transfer{Table: e.tbl, NumRecords: 64}
			allocs := measureSubmitAllocs(ses, src)
			ses.Drain()
			ses.Close()
			if allocs != 0 {
				t.Errorf("%s: %.1f allocs per Submit→ack, want 0", e.rt.Name(), allocs)
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
	policy repro.SyncPolicy
	bound  float64
}{
	{"self-clocked", repro.WALGroup(0, 0), 0},
	{"window", repro.WALGroup(4, time.Millisecond), 16},
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
		for _, e := range allocSystems(t, repro.NewWAL(repro.NewWALMemSegments(0), p.policy)) {
			t.Run(p.name+"/"+e.rt.Name(), func(t *testing.T) {
				ses := e.rt.Start()
				src := &repro.Transfer{Table: e.tbl, NumRecords: 64}
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

// TestSubmitAllocsWithCheckpointerBounded: a live fuzzy checkpointer —
// walking the table, sealing pages, committing manifests and truncating
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
		rt  repro.System
		db  *repro.DB
		tbl int
	}
	for _, p := range walAllocPolicies {
		var systems []entry
		build := func(f func(db *repro.DB, wal *repro.WAL, ck repro.CheckpointConfig) repro.System) {
			db, tbl := newAccountDB(t, n, 1000)
			wal := repro.NewWAL(repro.NewWALMemSegments(64<<10), p.policy)
			ck := repro.CheckpointConfig{Store: repro.NewMemCheckpointStore(), Interval: 5 * time.Millisecond}
			systems = append(systems, entry{f(db, wal, ck), db, tbl})
		}
		build(func(db *repro.DB, wal *repro.WAL, ck repro.CheckpointConfig) repro.System {
			return repro.NewOrthrus(repro.OrthrusConfig{DB: db, CCThreads: 2, ExecThreads: 2, Wal: wal, Checkpoint: ck})
		})
		build(func(db *repro.DB, wal *repro.WAL, ck repro.CheckpointConfig) repro.System {
			return repro.NewTwoPL(repro.LockingConfig{DB: db, Handler: repro.WaitDie(), Threads: threads, Wal: wal, Checkpoint: ck})
		})
		build(func(db *repro.DB, wal *repro.WAL, ck repro.CheckpointConfig) repro.System {
			return repro.NewDeadlockFree(repro.LockingConfig{DB: db, Threads: threads, Wal: wal, Checkpoint: ck})
		})
		build(func(db *repro.DB, wal *repro.WAL, ck repro.CheckpointConfig) repro.System {
			return repro.NewPartitionedStore(repro.LockingConfig{DB: db, Partitions: threads, Wal: wal, Checkpoint: ck})
		})
		for _, e := range systems {
			t.Run(p.name+"/"+e.rt.Name(), func(t *testing.T) {
				ses := e.rt.Start()
				src := &repro.Transfer{Table: e.tbl, NumRecords: 64}
				// Measure until a measurement spans a checkpoint: how many
				// 5 ms intervals 700 round trips cover is the machine's
				// business (under GOMAXPROCS=1 the fastest engines finish
				// inside one), so wait for the event, not the clock.
				ck := ses.(repro.CheckpointedSession)
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
// detector: for every submission, the completion callback must fire
// strictly before Free (the engine's last-observer contract), and a
// recycled transaction must never reach Free twice for one life. Running
// many concurrent submitters under -race additionally checks that no
// engine structure still touches a transaction after handing it back to
// the pool — any such access races with the next life's generator writes.
func TestPoolReuseSafety(t *testing.T) {
	for _, e := range allocSystems(t, nil) {
		t.Run(e.rt.Name(), func(t *testing.T) {
			const submitters, perSubmitter = 4, 300
			src := &repro.Transfer{Table: e.tbl, NumRecords: 64}
			ses := e.rt.Start()

			var completions sync.WaitGroup
			completions.Add(submitters * perSubmitter)
			var ordering atomic.Int64 // completion-after-Free violations
			var wg sync.WaitGroup
			for s := 0; s < submitters; s++ {
				wg.Add(1)
				go func(s int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(s)))
					for i := 0; i < perSubmitter; i++ {
						tx := src.Next(s, rng)
						// Interpose on Free to assert the completion
						// callback observed this life first. The original
						// (pool-bound) Free is restored before recycling so
						// the interposer never survives into the next life.
						var fired atomic.Bool
						orig := tx.Free
						tx.Free = func() {
							if !fired.Load() {
								ordering.Add(1)
							}
							tx.Free = orig
							if orig != nil {
								orig()
							}
						}
						ses.Submit(tx, func(bool) {
							fired.Store(true)
							completions.Done()
						})
					}
				}(s)
			}
			wg.Wait()
			ses.Drain()
			completions.Wait()
			ses.Close()

			if n := ordering.Load(); n != 0 {
				t.Errorf("%s: %d transactions were freed before their completion callback fired", e.rt.Name(), n)
			}
			if got := sumBalances(e.db, e.tbl, 64); got != 64*1000 {
				t.Errorf("%s: sum = %d, want %d (recycled transaction corrupted execution)", e.rt.Name(), got, 64*1000)
			}
		})
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
			src := &repro.Transfer{Table: e.tbl, NumRecords: 64}
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

package repro_test

import (
	"bytes"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"repro"
)

// durableEngines builds every system with a group-commit WAL attached,
// each over a fresh 64-account database, returning the engine, its
// database/table, and the in-memory log device holding its redo log.
func durableEngines(t testing.TB, policy repro.SyncPolicy) []struct {
	eng repro.Engine
	db  *repro.DB
	tbl int
	dev *repro.WALMemSegments
	log *repro.WAL
} {
	t.Helper()
	const n, threads = 64, 4
	type entry = struct {
		eng repro.Engine
		db  *repro.DB
		tbl int
		dev *repro.WALMemSegments
		log *repro.WAL
	}
	var out []entry
	build := func(f func(db *repro.DB, log *repro.WAL) repro.Engine) {
		db, tbl := newAccountDB(t, n, 1000)
		dev := repro.NewWALMemSegments(0)
		log := repro.NewWAL(dev, policy)
		out = append(out, entry{f(db, log), db, tbl, dev, log})
	}
	build(func(db *repro.DB, log *repro.WAL) repro.Engine {
		return repro.NewOrthrus(repro.OrthrusConfig{DB: db, CCThreads: 2, ExecThreads: 2, Wal: log})
	})
	build(func(db *repro.DB, log *repro.WAL) repro.Engine {
		return repro.NewDeadlockFree(repro.LockingConfig{DB: db, Threads: threads, Wal: log})
	})
	build(func(db *repro.DB, log *repro.WAL) repro.Engine {
		return repro.NewTwoPL(repro.LockingConfig{DB: db, Handler: repro.WaitDie(), Threads: threads, Wal: log})
	})
	build(func(db *repro.DB, log *repro.WAL) repro.Engine {
		return repro.NewPartitionedStore(repro.LockingConfig{DB: db, Partitions: threads, Wal: log})
	})
	return out
}

// unsyncedBytes reports how many written bytes of dev a crash could
// still lose: bytes written minus the synced prefix of every segment.
func unsyncedBytes(dev *repro.WALMemSegments) int {
	n := 0
	for _, s := range dev.Segments() {
		n += s.Bytes
	}
	for _, s := range dev.CrashSegments() {
		n -= len(s)
	}
	return n
}

// tornAt returns the crash image that keeps only the first cut bytes of
// the log: segments wholly below the cut survive, the one holding it is
// torn there, later ones are lost.
func tornAt(segs [][]byte, cut int) [][]byte {
	var out [][]byte
	for _, s := range segs {
		if cut <= 0 {
			break
		}
		if cut < len(s) {
			s = s[:cut]
		}
		out = append(out, s)
		cut -= len(s)
	}
	return out
}

// Crash recovery on every engine: run contended transfers through a
// group-commit WAL, then "crash" by truncating the log image at
// arbitrary torn points and replay. At every torn point the rebuilt
// state must be a committed prefix of history — the transfer
// conservation sum holds exactly — and replaying the full log must
// reproduce the live database byte for byte, so no acknowledged
// transaction is lost.
func TestCrashRecoveryCommittedPrefixOnAllEngines(t *testing.T) {
	for _, e := range durableEngines(t, repro.WALGroup(32, 100*time.Microsecond)) {
		e := e
		t.Run(e.eng.Name(), func(t *testing.T) {
			src := &repro.Transfer{Table: e.tbl, NumRecords: 64}
			res := e.eng.Run(src, 100*time.Millisecond)
			if res.Totals.Committed == 0 {
				t.Fatal("no commits")
			}
			if err := e.log.Close(); err != nil {
				t.Fatal(err)
			}
			if got := sumBalances(e.db, e.tbl, 64); got != 64*1000 {
				t.Fatalf("live sum = %d, want %d", got, 64*1000)
			}
			if n := unsyncedBytes(e.dev); n != 0 {
				t.Fatalf("close left %d bytes unsynced", n)
			}
			segs := e.dev.CrashSegments()
			size := 0
			for _, s := range segs {
				size += len(s)
			}

			// Arbitrary torn points, including mid-record cuts.
			rng := rand.New(rand.NewSource(42))
			cuts := []int{0, 1, size / 3, size / 2, size - 1, size}
			for i := 0; i < 8; i++ {
				cuts = append(cuts, rng.Intn(size+1))
			}
			for _, cut := range cuts {
				rebuilt, tbl2 := newAccountDB(t, 64, 1000)
				st := repro.ReplayWALSegments(tornAt(segs, cut), 0, 1, rebuilt)
				if got := sumBalances(rebuilt, tbl2, 64); got != 64*1000 {
					t.Fatalf("cut %d/%d: conservation broken: sum = %d (replay %+v)",
						cut, size, got, st)
				}
				if cut == size {
					if st.Torn || uint64(st.Applied) != res.Totals.Committed {
						t.Fatalf("full replay applied %d of %d commits (torn=%v)",
							st.Applied, res.Totals.Committed, st.Torn)
					}
					for k := uint64(0); k < 64; k++ {
						if !bytes.Equal(rebuilt.Table(tbl2).Get(k), e.db.Table(e.tbl).Get(k)) {
							t.Fatalf("full replay diverges from live state at key %d", k)
						}
					}
				}
			}
		})
	}
}

// A crash mid-run loses no acknowledged transaction: snapshot the synced
// log prefix while the engine is still committing, replay it, and check
// that it contains at least every transaction acknowledged before the
// snapshot. Each transaction increments one counter, so the replayed
// counter sum counts the applied transactions exactly.
func TestMidRunCrashKeepsAcknowledgedTransactions(t *testing.T) {
	db, tbl := newAccountDB(t, 64, 0)
	dev := repro.NewWALMemSegments(0)
	log := repro.NewWAL(dev, repro.WALGroup(16, 100*time.Microsecond))
	eng := repro.NewOrthrus(repro.OrthrusConfig{DB: db, CCThreads: 2, ExecThreads: 2, Wal: log})

	ses := eng.Start()
	var acked atomic.Int64
	const total = 4000
	var ackedBefore int64
	var img [][]byte
	for i := 0; i < total; i++ {
		k := uint64(i % 64)
		tx := &repro.Txn{Ops: []repro.Op{{Table: tbl, Key: k, Mode: repro.Write}}}
		tx.Logic = func(ctx repro.Ctx) error {
			rec, err := ctx.Write(tbl, k)
			if err != nil {
				return err
			}
			repro.AddI64(rec, 0, 1)
			return nil
		}
		ses.Submit(tx, func(bool) { acked.Add(1) })
		if i == total/2 {
			// The crash instant: everything acknowledged by now was
			// synced by an earlier flush, so it must survive in the
			// synced prefix captured after reading the counter.
			ackedBefore = acked.Load()
			img = dev.CrashSegments()
		}
	}
	ses.Drain()
	ses.Close()
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	if ackedBefore == 0 {
		t.Skip("no transactions acknowledged by mid-run — machine too slow to observe the crash window")
	}

	rebuilt, tbl2 := newAccountDB(t, 64, 0)
	st := repro.ReplayWALSegments(img, 0, 1, rebuilt)
	if got := sumBalances(rebuilt, tbl2, 64); got < ackedBefore {
		t.Fatalf("replayed %d transactions, but %d were acknowledged before the crash (replay %+v)",
			got, ackedBefore, st)
	} else if got != int64(st.Applied) {
		t.Fatalf("counter sum %d != applied records %d", got, st.Applied)
	}
}

// Mixed read-only and write transactions through a group-commit WAL:
// read-only acknowledgments ride the frontier (or the inline
// durable-tail fast path) while write acknowledgments come from the
// flusher — the -race CI job runs this to pin down that the two paths
// never write the same worker's latency histogram concurrently.
func TestDurableMixedReadWriteWorkload(t *testing.T) {
	for _, e := range durableEngines(t, repro.WALGroup(16, 100*time.Microsecond)) {
		e := e
		t.Run(e.eng.Name(), func(t *testing.T) {
			// YCSB mix B: 95% of ops read, so ~60% of transactions are
			// fully read-only and take the frontier-waiter ack path while
			// the rest go through the flusher.
			src := repro.YCSBMixB(e.tbl, 64)
			res := e.eng.Run(src, 60*time.Millisecond)
			if res.Totals.Committed == 0 {
				t.Fatal("no commits")
			}
			if res.Totals.Latency.Count() != res.Totals.Committed {
				t.Fatalf("latency samples %d != commits %d", res.Totals.Latency.Count(), res.Totals.Committed)
			}
			if err := e.log.Close(); err != nil {
				t.Fatal(err)
			}
			if unsyncedBytes(e.dev) != 0 {
				t.Fatal("close left unsynced bytes")
			}
		})
	}
}

// Acknowledged-equals-durable, end to end: when the session drains, the
// whole log is synced and replaying the synced image alone reproduces
// every acknowledged commit — on every engine and also under Async,
// where a clean drain (not a crash) is the no-loss guarantee.
func TestDrainMakesAcknowledgedWorkDurable(t *testing.T) {
	for _, policy := range []repro.SyncPolicy{
		repro.WALGroup(0, 0),
		repro.WALAsync(),
	} {
		policy := policy
		t.Run(policy.String(), func(t *testing.T) {
			for _, e := range durableEngines(t, policy) {
				e := e
				t.Run(e.eng.Name(), func(t *testing.T) {
					src := &repro.Transfer{Table: e.tbl, NumRecords: 64, HotRecords: 8}
					res := e.eng.Run(src, 50*time.Millisecond)
					if res.Totals.Committed == 0 {
						t.Fatal("no commits")
					}
					// Engine.Run closes its session, which drains the log
					// tail; the synced image must already be complete.
					img := e.dev.CrashSegments()
					rebuilt, tbl2 := newAccountDB(t, 64, 1000)
					st := repro.ReplayWALSegments(img, 0, 1, rebuilt)
					if uint64(st.Applied) != res.Totals.Committed {
						t.Fatalf("synced image holds %d of %d commits", st.Applied, res.Totals.Committed)
					}
					if got := sumBalances(rebuilt, tbl2, 64); got != 64*1000 {
						t.Fatalf("sum = %d", got)
					}
					if err := e.log.Close(); err != nil {
						t.Fatal(err)
					}
				})
			}
		})
	}
}

package repro_test

import (
	"math/rand"
	"testing"

	"repro"
	"repro/internal/workload"
)

// The planned engines load a transaction's declared records before its
// logic runs (PlannedCtx.Fetch). Those loads take no lock of their own:
// they are race-free only because they run once the whole footprint is
// held. Transfers on four hot records keep every record under a writer
// most of the time, so under -race a fetch issued anywhere the footprint
// is not yet held is reported; balance conservation checks the rest. One
// goroutine submits everything up front with no completion callback: a
// callback shared by the engine's threads would order them through its
// own atomics and hide the race.
func TestFetchRunsUnderHeldFootprint(t *testing.T) {
	const n, hot = 64, 4
	txns := 20000
	if testing.Short() {
		txns = 10000
	}
	for _, b := range []func(db *repro.DB) repro.Engine{
		func(db *repro.DB) repro.Engine {
			return repro.NewOrthrus(repro.OrthrusConfig{DB: db, CCThreads: 2, ExecThreads: 2})
		},
		func(db *repro.DB) repro.Engine {
			return repro.NewDeadlockFree(repro.LockingConfig{DB: db, Threads: 4})
		},
		func(db *repro.DB) repro.Engine {
			return repro.NewPartitionedStore(repro.LockingConfig{DB: db, Partitions: 4})
		},
	} {
		db, tbl := newAccountDB(t, n, 1000)
		sys := b(db)
		t.Run(sys.Name(), func(t *testing.T) {
			src := &workload.Transfer{Table: tbl, NumRecords: n, HotRecords: hot}
			rng := rand.New(rand.NewSource(1))
			ses := sys.Start()
			for i := 0; i < txns; i++ {
				ses.Submit(src.Next(0, rng), nil)
			}
			ses.Drain()
			if got := ses.Close().Totals.Committed; got != uint64(txns) {
				t.Fatalf("committed %d of %d", got, txns)
			}
			if got := sumBalances(db, tbl, n); got != n*1000 {
				t.Fatalf("sum = %d, want %d", got, n*1000)
			}
		})
	}
}

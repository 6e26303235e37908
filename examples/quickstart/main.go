// Quickstart: run the same high-contention workload on ORTHRUS and on
// conventional 2PL and compare.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"time"

	"repro"
)

func main() {
	const (
		records = 1 << 18 // 262,144 rows
		hot     = 64      // the paper's high-contention hot set
		threads = 16
	)

	fmt.Println("ORTHRUS reproduction quickstart")
	fmt.Printf("workload: 10 RMW/txn, 2 ops on a %d-record hot set, %d logical threads\n\n", hot, threads)

	// Every engine runs against the same kind of database: build one per
	// engine so they start from identical state.
	build := func() (*repro.DB, int) {
		db := repro.NewDB()
		tbl := db.Create(repro.Layout{Name: "accounts", NumRecords: records, RecordSize: 100})
		return db, tbl
	}
	src := func(tbl int) *repro.YCSB {
		return &repro.YCSB{
			Table:      tbl,
			NumRecords: records,
			OpsPerTxn:  10,
			HotRecords: hot,
			HotOps:     2,
		}
	}

	// ORTHRUS: partitioned functionality — dedicated concurrency-control
	// threads and execution threads communicating via message passing.
	db1, tbl1 := build()
	orthrus := repro.NewOrthrus(repro.OrthrusConfig{
		DB:          db1,
		CCThreads:   threads / 4,
		ExecThreads: threads - threads/4,
	})

	// Conventional 2PL with Dreadlocks deadlock detection: each thread
	// does its own locking against a shared lock table.
	db2, tbl2 := build()
	twopl := repro.NewTwoPL(repro.LockingConfig{
		DB:      db2,
		Handler: repro.Dreadlocks(threads),
		Threads: threads,
	})

	for i, run := range []struct {
		eng repro.Engine
		tbl int
	}{{orthrus, tbl1}, {twopl, tbl2}} {
		res := repro.RunClosedLoop(run.eng, src(run.tbl), 2*time.Second)
		fmt.Println(res)
		if i == 0 {
			fmt.Println()
		}
	}

	fmt.Println("\nExpected shape (paper Figure 4(b)/12(b)): ORTHRUS sustains a")
	fmt.Println("multiple of 2PL's throughput because no thread ever synchronizes")
	fmt.Println("on lock metadata and no deadlock handling runs at all.")
}

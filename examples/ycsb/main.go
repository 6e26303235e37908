// YCSB comparison: sweep the full system lineup over a configurable
// YCSB-style workload, reproducing the shape of the paper's Appendix A
// experiments from the public API.
//
//	go run ./examples/ycsb -hot 64 -threads 16 -duration 1s
//	go run ./examples/ycsb -readonly -hot 0        # Figure 11(a) shape
package main

import (
	"flag"
	"fmt"
	"time"

	"repro"
)

func main() {
	var (
		records  = flag.Uint64("records", 1<<18, "table size")
		hot      = flag.Uint64("hot", 64, "hot-set size (0 = uniform)")
		threads  = flag.Int("threads", 16, "total logical threads per engine")
		readonly = flag.Bool("readonly", false, "read-only transactions instead of 10RMW")
		duration = flag.Duration("duration", time.Second, "run length per system")
	)
	flag.Parse()

	cc := *threads / 5
	if cc < 1 {
		cc = 1
	}
	exec := *threads - cc

	newDB := func() (*repro.DB, int) {
		db := repro.NewDB()
		tbl := db.Create(repro.Layout{Name: "ycsb", NumRecords: *records, RecordSize: 100})
		return db, tbl
	}
	newSrc := func(tbl int) *repro.YCSB {
		s := &repro.YCSB{Table: tbl, NumRecords: *records, OpsPerTxn: 10, ReadOnly: *readonly}
		if *hot > 0 {
			s.HotRecords, s.HotOps = *hot, 2
		}
		return s
	}

	type entry struct {
		name  string
		build func() (repro.Engine, *repro.YCSB)
	}
	lineup := []entry{
		{"orthrus(single)", func() (repro.Engine, *repro.YCSB) {
			db, tbl := newDB()
			src := newSrc(tbl)
			src.Partitions, src.Spread, src.MultiPartitionPct = cc, 1, 100
			return repro.NewOrthrus(repro.OrthrusConfig{DB: db, CCThreads: cc, ExecThreads: exec}), src
		}},
		{"orthrus(random)", func() (repro.Engine, *repro.YCSB) {
			db, tbl := newDB()
			return repro.NewOrthrus(repro.OrthrusConfig{DB: db, CCThreads: cc, ExecThreads: exec}), newSrc(tbl)
		}},
		{"deadlock-free", func() (repro.Engine, *repro.YCSB) {
			db, tbl := newDB()
			return repro.NewDeadlockFree(repro.LockingConfig{DB: db, Threads: *threads}), newSrc(tbl)
		}},
		{"2pl(wait-die)", func() (repro.Engine, *repro.YCSB) {
			db, tbl := newDB()
			return repro.NewTwoPL(repro.LockingConfig{DB: db, Handler: repro.WaitDie(), Threads: *threads}), newSrc(tbl)
		}},
		{"2pl(dreadlocks)", func() (repro.Engine, *repro.YCSB) {
			db, tbl := newDB()
			return repro.NewTwoPL(repro.LockingConfig{DB: db, Handler: repro.Dreadlocks(*threads), Threads: *threads}), newSrc(tbl)
		}},
		{"partstore", func() (repro.Engine, *repro.YCSB) {
			db, tbl := newDB()
			src := newSrc(tbl)
			src.Partitions, src.Spread, src.MultiPartitionPct = *threads, 1, 100
			return repro.NewPartitionedStore(repro.LockingConfig{DB: db, Partitions: *threads}), src
		}},
	}

	kind := "10 read-modify-writes"
	if *readonly {
		kind = "10 reads"
	}
	fmt.Printf("YCSB: %s per txn, %d records, hot set %d, %d threads, %v per run\n\n",
		kind, *records, *hot, *threads, *duration)
	for _, e := range lineup {
		eng, src := e.build()
		if err := src.Validate(); err != nil {
			panic(err)
		}
		res := repro.RunClosedLoop(eng, src, *duration)
		fmt.Printf("%-18s %s\n", e.name, res)
	}
}

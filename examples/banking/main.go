// Banking: build transactions by hand against the public API — declared
// access sets plus a logic closure — and verify serializable isolation by
// balance conservation under heavy conflict on every engine.
//
// This example shows the "library user" path: you are not limited to the
// bundled YCSB/TPC-C generators; any transaction expressible as (declared
// access set, logic) runs on all engines unchanged.
//
//	go run ./examples/banking
package main

import (
	"fmt"
	"math/rand"
	"os"
	"time"

	"repro"
)

const (
	accounts       = 64
	initialBalance = 10_000 // cents
	threads        = 8
)

// transferSource emits hand-built transfer transactions: move a random
// amount between two random accounts, but never overdraw.
type transferSource struct {
	table int
}

func (s *transferSource) Next(_ int, rng *rand.Rand) *repro.Txn {
	from := uint64(rng.Intn(accounts))
	to := uint64(rng.Intn(accounts - 1))
	if to >= from {
		to++
	}
	amount := int64(1 + rng.Intn(100))

	t := &repro.Txn{
		// The declared access set: what the planned engines (ORTHRUS,
		// deadlock-free) lock before running Logic. Conventional 2PL
		// ignores it and locks on first touch.
		Ops: []repro.Op{
			{Table: s.table, Key: from, Mode: repro.Write},
			{Table: s.table, Key: to, Mode: repro.Write},
		},
	}
	t.Logic = func(ctx repro.Ctx) error {
		src, err := ctx.Write(s.table, from)
		if err != nil {
			return err
		}
		dst, err := ctx.Write(s.table, to)
		if err != nil {
			return err
		}
		balance := repro.GetI64(src, 0)
		if balance < amount {
			return nil // insufficient funds: commit as a no-op
		}
		repro.PutI64(src, 0, balance-amount)
		repro.AddI64(dst, 0, amount)
		return nil
	}
	return t
}

func main() {
	fmt.Printf("banking: %d accounts × $%d.00, 2-account transfers, %d threads\n\n",
		accounts, initialBalance/100, threads)

	builders := []struct {
		name  string
		build func(db *repro.DB) repro.Engine
	}{
		{"orthrus", func(db *repro.DB) repro.Engine {
			return repro.NewOrthrus(repro.OrthrusConfig{DB: db, CCThreads: 2, ExecThreads: threads - 2})
		}},
		{"deadlock-free", func(db *repro.DB) repro.Engine {
			return repro.NewDeadlockFree(repro.LockingConfig{DB: db, Threads: threads})
		}},
		{"2pl(wait-die)", func(db *repro.DB) repro.Engine {
			return repro.NewTwoPL(repro.LockingConfig{DB: db, Handler: repro.WaitDie(), Threads: threads})
		}},
		{"2pl(wait-for)", func(db *repro.DB) repro.Engine {
			return repro.NewTwoPL(repro.LockingConfig{DB: db, Handler: repro.WaitForGraph(threads), Threads: threads})
		}},
		{"partstore", func(db *repro.DB) repro.Engine {
			return repro.NewPartitionedStore(repro.LockingConfig{DB: db, Partitions: threads})
		}},
	}

	violated := false
	for _, b := range builders {
		db := repro.NewDB()
		tbl := db.Create(repro.Layout{Name: "accounts", NumRecords: accounts, RecordSize: 64})
		for k := uint64(0); k < accounts; k++ {
			repro.PutI64(db.Table(tbl).Get(k), 0, initialBalance)
		}

		res := repro.RunClosedLoop(b.build(db), &transferSource{table: tbl}, time.Second)

		var total int64
		for k := uint64(0); k < accounts; k++ {
			total += repro.GetI64(db.Table(tbl).Get(k), 0)
		}
		verdict := "CONSERVED"
		if total != accounts*initialBalance {
			verdict = fmt.Sprintf("VIOLATED (total=%d)", total)
			violated = true
		}
		fmt.Printf("%-14s %10.0f txns/s  aborts=%-7d balance %s\n",
			b.name, res.Throughput(), res.Totals.Aborted, verdict)
	}
	if violated {
		os.Exit(1)
	}
}

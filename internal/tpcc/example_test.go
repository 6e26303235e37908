package tpcc_test

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/engine/locking"
	"repro/internal/tpcc"
)

// Example_loadAndRun loads a small TPC-C database, runs the paper's
// NewOrder+Payment mix briefly, and audits the money invariants.
func Example_loadAndRun() {
	s, err := tpcc.Load(tpcc.Config{Warehouses: 2, Items: 100, CustomersPerDistrict: 20})
	if err != nil {
		panic(err)
	}
	eng := locking.New(locking.Config{DB: s.DB, Threads: 2})
	res := eng.Run(&tpcc.Mix{S: s}, 50*time.Millisecond)
	fmt.Println("committed >", res.Totals.Committed > 0)
	fmt.Println("consistent:", s.CheckConsistency() == nil)
	// Output:
	// committed > true
	// consistent: true
}

// ExampleSchema_GenNewOrderParams shows the generator API for building
// custom harnesses on top of the substrate.
func ExampleSchema_GenNewOrderParams() {
	s, _ := tpcc.Load(tpcc.Config{Warehouses: 1, Items: 100, CustomersPerDistrict: 20})
	rng := rand.New(rand.NewSource(1))
	p := s.GenNewOrderParams(rng, 0)
	fmt.Println("lines within spec:", len(p.Items) >= 5 && len(p.Items) <= 15)
	tx := s.NewOrderTxn(p)
	fmt.Println("declared ops:", len(tx.Ops) == 3+len(p.Items))
	// Output:
	// lines within spec: true
	// declared ops: true
}

// ExampleLastName renders the spec's syllable-coded customer last names.
func ExampleLastName() {
	fmt.Println(tpcc.LastName(0))
	fmt.Println(tpcc.LastName(123))
	// Output:
	// BARBARBAR
	// OUGHTABLEPRI
}

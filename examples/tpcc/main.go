// TPC-C: run the paper's §4.4 evaluation mix (50% NewOrder, 50% Payment,
// with spec remote rates and Payment-by-last-name via OLLP) on the three
// §4.4 systems, then audit the database's money invariants.
//
//	go run ./examples/tpcc -warehouses 16 -threads 16 -duration 1s
//	go run ./examples/tpcc -full    # include OrderStatus/Delivery/StockLevel
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro"
)

func main() {
	var (
		warehouses = flag.Int("warehouses", 16, "warehouse count (fewer = more contention)")
		threads    = flag.Int("threads", 16, "total logical threads per engine")
		duration   = flag.Duration("duration", time.Second, "run length per system")
		full       = flag.Bool("full", false, "run the full five-transaction mix")
	)
	flag.Parse()

	cc := *threads / 5
	if cc < 1 {
		cc = 1
	}

	type entry struct {
		name  string
		build func(s *repro.TPCCSchema) repro.Engine
	}
	lineup := []entry{
		{"orthrus", func(s *repro.TPCCSchema) repro.Engine {
			return repro.NewOrthrus(repro.OrthrusConfig{
				DB: s.DB, CCThreads: cc, ExecThreads: *threads - cc,
				// The paper partitions TPC-C's lock space by warehouse id.
				Partition: s.PartitionByWarehouse(cc),
			})
		}},
		{"deadlock-free", func(s *repro.TPCCSchema) repro.Engine {
			return repro.NewDeadlockFree(repro.LockingConfig{DB: s.DB, Threads: *threads})
		}},
		{"2pl(dreadlocks)", func(s *repro.TPCCSchema) repro.Engine {
			return repro.NewTwoPL(repro.LockingConfig{
				DB: s.DB, Handler: repro.Dreadlocks(*threads), Threads: *threads,
			})
		}},
	}

	fmt.Printf("TPC-C: %d warehouses, %d threads, %v per system\n", *warehouses, *threads, *duration)
	if *full {
		fmt.Println("mix: 45% NewOrder, 43% Payment, 4% OrderStatus, 4% Delivery, 4% StockLevel")
	} else {
		fmt.Println("mix: 50% NewOrder, 50% Payment (the paper's evaluation mix)")
	}
	fmt.Println()

	violated := false
	for _, e := range lineup {
		s, err := repro.LoadTPCC(repro.TPCCConfig{
			Warehouses: *warehouses, Items: 1000, CustomersPerDistrict: 100,
		})
		if err != nil {
			panic(err)
		}
		src := &repro.TPCCMix{S: s}
		if *full {
			src.NewOrderWeight, src.PaymentWeight = 45, 43
			src.OrderStatusWeight, src.DeliveryWeight, src.StockLevelWeight = 4, 4, 4
		}
		res := repro.RunClosedLoop(e.build(s), src, *duration)
		fmt.Printf("%-16s %s\n", e.name, res)

		// Audit: W_YTD must equal the sum of district YTDs, and every
		// order id allocated by a committed NewOrder must exist.
		if err := s.CheckConsistency(); err != nil {
			fmt.Printf("  CONSISTENCY VIOLATION: %v\n", err)
			violated = true
		} else {
			fmt.Printf("  consistent: %d orders placed, $%d.%02d payment volume\n",
				s.OrdersPlaced(), s.TotalPayments()/100, s.TotalPayments()%100)
		}
	}
	if violated {
		os.Exit(1)
	}
}

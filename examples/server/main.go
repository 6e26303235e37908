// Server: run an engine as a long-lived service instead of a benchmark
// loop. The Engine/Session lifecycle decouples the engine's threads from
// load generation: Start the engine once, then any caller — here, a pool
// of simulated client connections, in production an RPC front-end —
// Submits transactions and is notified per transaction as it commits.
//
// The second half measures what serving actually cares about: commit
// latency under offered (open-loop) load, where arrivals follow a Poisson
// process at a fixed rate rather than politely waiting for the previous
// transaction to finish.
//
//	go run ./examples/server
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"net/http"
	_ "net/http/pprof"
	"sync"
	"time"

	"repro"
)

func main() {
	var (
		records   = flag.Uint64("records", 1<<16, "table rows")
		hot       = flag.Uint64("hot", 64, "hot-set size")
		cc        = flag.Int("cc", 2, "ORTHRUS CC threads")
		exec      = flag.Int("exec", 6, "ORTHRUS execution threads")
		clients   = flag.Int("clients", 8, "simulated client connections")
		duration  = flag.Duration("duration", time.Second, "run length per phase")
		pprofAddr = flag.String("pprof-addr", "", "serve net/http/pprof on this address (e.g. localhost:6060) while the server runs")
	)
	flag.Parse()

	if *pprofAddr != "" {
		// Live profiling endpoint, the serving-side complement of
		// orthrus-bench's -cpuprofile: while a phase runs,
		//
		//	go tool pprof http://<addr>/debug/pprof/profile?seconds=5
		//
		// attaches to the hot path under real load.
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Printf("pprof listener: %v\n", err)
			}
		}()
		fmt.Printf("pprof: http://%s/debug/pprof/\n", *pprofAddr)
	}

	db := repro.NewDB()
	tbl := db.Create(repro.Layout{Name: "accounts", NumRecords: *records, RecordSize: 100})
	eng := repro.NewOrthrus(repro.OrthrusConfig{DB: db, CCThreads: *cc, ExecThreads: *exec})
	newSrc := func() *repro.YCSB {
		return &repro.YCSB{Table: tbl, NumRecords: *records, OpsPerTxn: 10,
			HotRecords: *hot, HotOps: 2}
	}

	// --- Phase 1: serve concurrent clients through a Session -----------
	fmt.Printf("phase 1: %s serving %d clients for %v\n", eng.Name(), *clients, *duration)
	ses := eng.Start()
	var wg sync.WaitGroup
	perClient := make([]repro.Histogram, *clients)
	deadline := time.Now().Add(*duration)
	for c := 0; c < *clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			// One synchronous "connection": submit, await the commit
			// notification, repeat — the way an RPC handler would block
			// on its transaction's outcome before responding. Request
			// latency (queueing included) is measured here, at the
			// caller; the session's own histogram reports service
			// latency from worker pickup to commit.
			rng := rand.New(rand.NewSource(int64(c) + 1))
			src := newSrc()
			done := make(chan struct{}, 1)
			for time.Now().Before(deadline) {
				t0 := time.Now()
				ses.Submit(src.Next(c, rng), func(bool) { done <- struct{}{} })
				<-done
				perClient[c].Record(time.Since(t0))
			}
		}(c)
	}
	wg.Wait()
	ses.Drain()
	res := ses.Close()
	var reqLat repro.Histogram
	for i := range perClient {
		reqLat.Merge(&perClient[i])
	}
	fmt.Printf("  %v\n  service latency (worker pickup → commit): %v\n", res, &res.Totals.Latency)
	fmt.Printf("  request latency (submit → notification):  %v\n\n", &reqLat)

	// --- Phase 2: open-loop latency under offered load ------------------
	// Calibrate capacity closed-loop, then offer fixed Poisson rates.
	capacity := repro.RunClosedLoop(eng, newSrc(), *duration).Throughput()
	fmt.Printf("phase 2: open loop (closed-loop capacity %.0f txns/s)\n", capacity)
	fmt.Printf("  %-12s %12s %12s %12s %12s %12s\n", "offered_pct", "rate", "achieved", "p50", "p99", "max_lag")
	for _, pct := range []int{25, 50, 75, 90} {
		rate := capacity * float64(pct) / 100
		olr := repro.RunOpenLoop(eng, newSrc(), rate, *duration)
		fmt.Printf("  %-12d %12.0f %12.0f %12v %12v %12v\n", pct, rate, olr.AchievedRate(),
			olr.Latency.Percentile(50), olr.Latency.Percentile(99), olr.MaxLag)
	}
	fmt.Println("\nAt low offered load, open-loop latency is close to the")
	fmt.Println("uncontended commit path; as the rate approaches capacity,")
	fmt.Println("queueing dominates and the tail stretches first.")
}

package harness

import (
	"fmt"

	"repro/internal/deadlock"
	"repro/internal/engine"
	"repro/internal/engine/locking"
	"repro/internal/orthrus"
	"repro/internal/tpcc"
	"repro/internal/workload"
)

// paperCores is the machine-size axis used throughout the evaluation.
var paperCores = []int{10, 20, 40, 60, 80}

// fig1: scalability of short read-only transactions under 2PL on a
// high-contention workload (hot set 64). The handler never fires — the
// flattening comes purely from shared lock-table synchronization.
func fig1(c Config) {
	header(c, "Figure 1: 2PL read-only scalability, hot set = 64")
	t := newTable(c, "threads", []string{"2pl"})
	for _, n := range threadAxis(c, paperCores) {
		db, tbl := newYCSBDB(c)
		eng := locking.New(locking.Config{DB: db, Handler: deadlock.WaitDie{}, Threads: n})
		src := &workload.YCSB{Table: tbl, NumRecords: c.Records, OpsPerTxn: 10,
			ReadOnly: true, HotRecords: 64, HotOps: 2}
		t.row(n, []float64{point(c, eng, src).Throughput()})
	}
}

// fig4 hot-set axis (contention increases left to right in the paper; we
// print decreasing hot-set size downward).
var fig4HotSets = []uint64{8192, 4096, 2048, 1024, 512, 384, 256, 192, 128, 64}

func fig4(c Config, threads int) {
	systems := []string{"deadlock-free", "dreadlocks", "waitdie", "waitfor"}
	t := newTable(c, "hot_records", systems)
	for _, hot := range fig4HotSets {
		if hot > c.Records {
			continue
		}
		tps := make([]float64, 0, len(systems))
		build := []func() (engine.Engine, *workload.YCSB){
			func() (engine.Engine, *workload.YCSB) {
				db, tbl := newYCSBDB(c)
				return locking.New(locking.Config{DB: db, Threads: threads}), fig4Src(c, tbl, hot)
			},
			func() (engine.Engine, *workload.YCSB) {
				db, tbl := newYCSBDB(c)
				return locking.New(locking.Config{DB: db, Handler: deadlock.NewDreadlocks(threads), Threads: threads}), fig4Src(c, tbl, hot)
			},
			func() (engine.Engine, *workload.YCSB) {
				db, tbl := newYCSBDB(c)
				return locking.New(locking.Config{DB: db, Handler: deadlock.WaitDie{}, Threads: threads}), fig4Src(c, tbl, hot)
			},
			func() (engine.Engine, *workload.YCSB) {
				db, tbl := newYCSBDB(c)
				return locking.New(locking.Config{DB: db, Handler: deadlock.NewWaitForGraph(threads), Threads: threads}), fig4Src(c, tbl, hot)
			},
		}
		for _, b := range build {
			eng, src := b()
			tps = append(tps, point(c, eng, src).Throughput())
		}
		t.row(hot, tps)
	}
}

func fig4Src(c Config, tbl int, hot uint64) *workload.YCSB {
	return &workload.YCSB{Table: tbl, NumRecords: c.Records, OpsPerTxn: 10,
		HotRecords: hot, HotOps: 2}
}

func fig4a(c Config) {
	n := 10
	if n > c.MaxThreads {
		n = c.MaxThreads
	}
	header(c, fmt.Sprintf("Figure 4(a): deadlock handling vs hot-set size, %d threads", n))
	fig4(c, n)
}

func fig4b(c Config) {
	n := 80
	if n > c.MaxThreads {
		n = c.MaxThreads
	}
	header(c, fmt.Sprintf("Figure 4(b): deadlock handling vs hot-set size, %d threads", n))
	fig4(c, n)
}

// fig5: ORTHRUS thread-allocation trade-off. Uniform 10RMW transactions,
// each confined to a single CC thread's partition (§4.2).
func fig5(c Config) {
	header(c, "Figure 5: ORTHRUS execution-thread scalability per CC allocation")
	ccCounts := []int{4, 8, 16}
	execAxis := threadAxis(c, []int{4, 8, 16, 24, 32, 48, 64})
	cols := make([]string, len(ccCounts))
	for i, cc := range ccCounts {
		cols[i] = fmt.Sprintf("%dcc", cc)
	}
	t := newTable(c, "exec_threads", cols)
	for _, ex := range execAxis {
		tps := make([]float64, 0, len(ccCounts))
		for _, cc := range ccCounts {
			db, tbl := newYCSBDB(c)
			eng := orthrus.New(orthrus.Config{DB: db, CCThreads: cc, ExecThreads: ex})
			src := &workload.YCSB{Table: tbl, NumRecords: c.Records, OpsPerTxn: 10,
				Partitions: cc, Spread: 1, MultiPartitionPct: 100}
			tps = append(tps, point(c, eng, src).Throughput())
		}
		t.row(ex, tps)
	}
}

// fig6Partitions is the common partition universe for the multi-partition
// experiments: Partitioned-store runs one worker per partition, ORTHRUS
// partitions its lock space identically.
const fig6Partitions = 16

// multiPartition is the shared body of Figures 6 and 7: one series per
// distinct configuration along a YCSB partition-footprint axis. The
// paper's "split" series partition indexes for cache locality, which this
// reproduction cannot show; they would re-measure orthrus and dlfree.
func multiPartition(c Config, title, xlabel string, axis []int, shape func(x int) (spread, mpPct int)) {
	total := c.MaxThreads
	header(c, fmt.Sprintf("%s (%d partitions, %d threads; the paper's split variants are not distinguishable from orthrus/dlfree at this scale and are not run)",
		title, fig6Partitions, total))
	names := []string{"partstore", "orthrus", "dlfree"}
	t := newTable(c, xlabel, names)
	for _, x := range axis {
		spread, mpPct := shape(x)
		tps := make([]float64, 0, len(names))
		for _, sys := range names {
			db, tbl := newYCSBDB(c)
			src := &workload.YCSB{Table: tbl, NumRecords: c.Records, OpsPerTxn: 10,
				Partitions: fig6Partitions, Spread: spread, MultiPartitionPct: mpPct}
			var eng engine.Engine
			switch sys {
			case "partstore":
				eng = locking.New(locking.Config{DB: db, Partitions: fig6Partitions})
			case "orthrus":
				eng = orthrus.New(orthrus.Config{DB: db, CCThreads: fig6Partitions,
					ExecThreads: max(1, total-fig6Partitions)})
			case "dlfree":
				eng = locking.New(locking.Config{DB: db, Threads: total})
			}
			tps = append(tps, point(c, eng, src).Throughput())
		}
		t.row(x, tps)
	}
}

func fig6(c Config) {
	multiPartition(c, "Figure 6: partitions accessed per transaction", "parts_per_txn",
		[]int{1, 2, 4, 6, 8, 10}, func(spread int) (int, int) { return spread, 100 })
}

// fig7: mixed single-/two-partition workloads.
func fig7(c Config) {
	multiPartition(c, "Figure 7: % multi-partition transactions", "mp_pct",
		[]int{0, 20, 40, 60, 80, 100}, func(pct int) (int, int) { return 2, pct })
}

// --- TPC-C experiments -----------------------------------------------------

func tpccSchema(c Config, warehouses int) *tpcc.Schema {
	s, err := tpcc.Load(tpcc.Config{Warehouses: warehouses,
		Items: c.TPCCItems, CustomersPerDistrict: c.TPCCCustomers})
	if err != nil {
		panic(err)
	}
	return s
}

// tpccEngines builds the §4.4 system lineup for a given thread budget.
func tpccEngines(c Config, s *tpcc.Schema, threads int) (names []string, engines []engine.Engine) {
	cc, exec := ccSplit(threads)
	if cc > 16 {
		cc = 16 // paper: 16 CC threads at 80 cores
		exec = threads - cc
	}
	names = []string{"orthrus", "dlfree", "2pl-dreadlocks"}
	engines = []engine.Engine{
		orthrus.New(orthrus.Config{DB: s.DB, CCThreads: cc, ExecThreads: exec,
			Partition: s.PartitionByWarehouse(cc)}),
		locking.New(locking.Config{DB: s.DB, Threads: threads}),
		locking.New(locking.Config{DB: s.DB, Handler: deadlock.NewDreadlocks(threads), Threads: threads}),
	}
	return
}

// fig8: TPC-C throughput vs warehouse count at the full thread budget.
func fig8(c Config) {
	total := c.MaxThreads
	header(c, fmt.Sprintf("Figure 8: TPC-C NewOrder+Payment vs warehouses, %d threads", total))
	t := newTable(c, "warehouses", []string{"orthrus", "dlfree", "2pl-dreadlocks"})
	for _, w := range []int{4, 8, 16, 32, 64, 96, 128} {
		tps := make([]float64, 0, 3)
		for i := 0; i < 3; i++ {
			s := tpccSchema(c, w)
			_, engines := tpccEngines(c, s, total)
			src := &tpcc.Mix{S: s}
			tps = append(tps, point(c, engines[i], src).Throughput())
		}
		t.row(w, tps)
	}
}

// fig9: TPC-C scalability at 16 warehouses.
func fig9(c Config) {
	header(c, "Figure 9: TPC-C scalability, 16 warehouses")
	t := newTable(c, "threads", []string{"orthrus", "dlfree", "2pl-dreadlocks"})
	for _, n := range threadAxis(c, paperCores) {
		tps := make([]float64, 0, 3)
		for i := 0; i < 3; i++ {
			s := tpccSchema(c, 16)
			_, engines := tpccEngines(c, s, n)
			src := &tpcc.Mix{S: s}
			tps = append(tps, point(c, engines[i], src).Throughput())
		}
		t.row(n, tps)
	}
}

// fig10: execution-thread CPU time breakdown, low (128 warehouses) and
// high (16 warehouses) contention.
func fig10(c Config) {
	total := c.MaxThreads
	for _, cfg := range []struct {
		label string
		w     int
	}{
		{"low contention (128 warehouses)", 128},
		{"high contention (16 warehouses)", 16},
	} {
		header(c, fmt.Sprintf("Figure 10: CPU time breakdown, %s, %d threads", cfg.label, total))
		fmt.Fprintf(c.Out, "%-18s %8s %8s %8s\n", "system", "exec%", "lock%", "wait%")
		for i := 0; i < 3; i++ {
			s := tpccSchema(c, cfg.w)
			names, engines := tpccEngines(c, s, total)
			res := point(c, engines[i], &tpcc.Mix{S: s})
			e, l, w, _ := res.Totals.Breakdown()
			fmt.Fprintf(c.Out, "%-18s %8.1f %8.1f %8.1f\n", names[i], e, l, w)
			c.JSONRow(map[string]interface{}{
				"x_label": "warehouses", "x": cfg.w, "system": names[i],
				"series": map[string]interface{}{
					"tps": res.Throughput(), "exec_pct": e, "lock_pct": l, "wait_pct": w,
				},
			})
		}
	}
}

// --- YCSB appendix experiments ----------------------------------------------

// fig11and12 runs the Appendix A scalability matrix.
func fig11and12(c Config, readOnly bool, hot uint64, title string) {
	header(c, title)
	names := []string{"orthrus-single", "orthrus-dual", "orthrus-random", "dlfree", "2pl-waitdie"}
	t := newTable(c, "threads", names)
	for _, n := range threadAxis(c, paperCores) {
		cc, exec := ccSplit(n)
		tps := make([]float64, 0, len(names))
		for _, sys := range names {
			db, tbl := newYCSBDB(c)
			src := &workload.YCSB{Table: tbl, NumRecords: c.Records, OpsPerTxn: 10,
				ReadOnly: readOnly, HotRecords: hot, HotOps: 2}
			if hot == 0 {
				src.HotOps = 0
			}
			var eng engine.Engine
			switch sys {
			case "orthrus-single":
				src.Partitions, src.Spread, src.MultiPartitionPct = cc, 1, 100
				eng = orthrus.New(orthrus.Config{DB: db, CCThreads: cc, ExecThreads: exec})
			case "orthrus-dual":
				src.Partitions, src.Spread, src.MultiPartitionPct = cc, min(2, cc), 100
				eng = orthrus.New(orthrus.Config{DB: db, CCThreads: cc, ExecThreads: exec})
			case "orthrus-random":
				eng = orthrus.New(orthrus.Config{DB: db, CCThreads: cc, ExecThreads: exec})
			case "dlfree":
				eng = locking.New(locking.Config{DB: db, Threads: n})
			case "2pl-waitdie":
				eng = locking.New(locking.Config{DB: db, Handler: deadlock.WaitDie{}, Threads: n})
			}
			tps = append(tps, point(c, eng, src).Throughput())
		}
		t.row(n, tps)
	}
}

func fig11a(c Config) {
	fig11and12(c, true, 0, "Figure 11(a): YCSB read-only scalability, low contention")
}

func fig11b(c Config) {
	fig11and12(c, true, 64, "Figure 11(b): YCSB read-only scalability, high contention (hot=64)")
}

func fig12a(c Config) {
	fig11and12(c, false, 0, "Figure 12(a): YCSB 10RMW scalability, low contention")
}

func fig12b(c Config) {
	fig11and12(c, false, 64, "Figure 12(b): YCSB 10RMW scalability, high contention (hot=64)")
}

// batching: the message-plane batching extension (not a paper figure).
// The paper's partitioned-functionality design wins only while message
// passing stays cheaper than the latching it replaces (§3.1/§3.3);
// batching amortizes the ring cost of one atomic publish plus one atomic
// consume across BatchSize messages. BatchSize=1 is the unbatched
// baseline; the op columns report the MessageStats ring-operation
// counters, msgs/enq the achieved producer-side batching factor.
func batching(c Config) {
	header(c, "Message batching: ring operations and closed-loop throughput vs BatchSize")
	threads := 8
	if threads > c.MaxThreads {
		threads = c.MaxThreads
	}
	cc, exec := ccSplit(threads)
	workloads := []struct {
		name  string
		build func(tbl int) workload.Source
	}{
		{"transfer", func(tbl int) workload.Source {
			return &workload.Transfer{Table: tbl, NumRecords: c.Records}
		}},
		{"ycsb-10rmw", func(tbl int) workload.Source {
			return &workload.YCSB{Table: tbl, NumRecords: c.Records, OpsPerTxn: 10,
				HotRecords: 64, HotOps: 2}
		}},
	}
	for _, wl := range workloads {
		fmt.Fprintf(c.Out, "\n%s workload (%d CC / %d exec threads):\n", wl.name, cc, exec)
		fmt.Fprintf(c.Out, "%-12s %12s %14s %12s %12s %10s\n",
			"batch_size", "tps", "messages", "enq_ops", "deq_ops", "msgs/enq")
		var lastPerCC []orthrus.CCStats
		for _, bs := range []int{1, 2, 4, 8, 16, 32} {
			db, tbl := newYCSBDB(c)
			eng := orthrus.New(orthrus.Config{DB: db, CCThreads: cc, ExecThreads: exec, BatchSize: bs})
			res := point(c, eng, wl.build(tbl))
			m := eng.Messages()
			fmt.Fprintf(c.Out, "%-12d %12.0f %14d %12d %12d %10.2f\n",
				bs, res.Throughput(), m.TotalMessages(), m.EnqueueOps, m.DequeueOps,
				m.MessagesPerEnqueue())
			c.JSONRow(map[string]interface{}{
				"workload": wl.name, "x_label": "batch_size", "x": bs,
				"series": map[string]interface{}{
					"tps": res.Throughput(), "messages": m.TotalMessages(),
					"enq_ops": m.EnqueueOps, "deq_ops": m.DequeueOps,
				},
			})
			lastPerCC = m.PerCC
		}
		// Per-CC-thread load breakdown of the last (most batched) run.
		fmt.Fprintf(c.Out, "per-CC breakdown (batch=32): ")
		for i, cs := range lastPerCC {
			if i > 0 {
				fmt.Fprintf(c.Out, "  ")
			}
			fmt.Fprintf(c.Out, "cc%d handled=%d hiwater=%d", i, cs.Handled(), cs.QueueHighWater)
		}
		fmt.Fprintln(c.Out)
	}
}

// openloop: the serving-latency experiment enabled by the Engine/Session
// lifecycle (not a paper figure): the paper's high-contention YCSB
// hot/cold workload offered to ORTHRUS at fixed Poisson arrival rates —
// a calibration fraction of the measured closed-loop capacity — with
// commit latency measured from each transaction's scheduled arrival.
func openloop(c Config) {
	header(c, "Open loop: commit latency vs offered load, 10RMW hot set = 64")
	threads := 16
	if threads > c.MaxThreads {
		threads = c.MaxThreads
	}
	cc, exec := ccSplit(threads)
	newEng := func() (*orthrus.Engine, *workload.YCSB) {
		db, tbl := newYCSBDB(c)
		src := &workload.YCSB{Table: tbl, NumRecords: c.Records, OpsPerTxn: 10,
			HotRecords: 64, HotOps: 2}
		return orthrus.New(orthrus.Config{DB: db, CCThreads: cc, ExecThreads: exec}), src
	}

	// Calibrate: measure closed-loop capacity, then offer fractions of it.
	eng, src := newEng()
	capacity := engine.RunClosedLoop(eng, src, c.Duration).Throughput()
	fmt.Fprintf(c.Out, "closed-loop capacity %.0f txns/s (%d threads)\n", capacity, threads)
	if capacity < 100 {
		fmt.Fprintln(c.Out, "capacity too low to offer open-loop load")
		return
	}
	fmt.Fprintf(c.Out, "%-14s %12s %12s %12s %12s %12s\n", "offered_pct", "rate", "achieved", "p50_us", "p99_us", "max_lag_us")
	for _, pct := range []int{25, 50, 75} {
		rate := capacity * float64(pct) / 100
		eng, src := newEng()
		res := engine.RunOpenLoop(eng, src, rate, c.Duration)
		c.noteWorkers(eng)
		fmt.Fprintf(c.Out, "%-14d %12.0f %12.0f %12d %12d %12d\n",
			pct, rate, res.AchievedRate(),
			res.Latency.Percentile(50).Microseconds(),
			res.Latency.Percentile(99).Microseconds(),
			res.MaxLag.Microseconds())
		c.JSONRow(map[string]interface{}{
			"x_label": "offered_pct", "x": pct,
			"series": map[string]interface{}{
				"rate": rate, "achieved": res.AchievedRate(),
				"p50_us": res.Latency.Percentile(50).Microseconds(),
				"p99_us": res.Latency.Percentile(99).Microseconds(),
			},
		})
	}
}

package repro

import (
	"testing"
	"time"
)

// Whole-system throughput benchmarks, one per paper figure. Each benchmark
// runs its figure's headline data point for a duration proportional to
// b.N and reports committed transactions per second as a custom metric, so
//
//	go test -bench=. -benchmem
//
// produces a row per (figure, system) pair. The full parameter sweeps —
// every axis value of every figure — live in cmd/orthrus-bench; these
// benchmarks pin the headline comparisons. Thread counts are logical
// (README.md "Scale and fidelity") and sized for a small machine; raise benchDuration and
// the table sizes for a closer match to the paper's configuration.

// benchRecords is the YCSB table size (paper: 10M; scaled for CI).
const benchRecords = 1 << 16

func benchDuration(b *testing.B) time.Duration {
	d := time.Duration(b.N) * time.Millisecond
	if d > 2*time.Second {
		d = 2 * time.Second
	}
	return d
}

func newBenchDB() (*DB, int) {
	db := NewDB()
	tbl := db.Create(Layout{Name: "ycsb", NumRecords: benchRecords, RecordSize: 100})
	return db, tbl
}

func reportRun(b *testing.B, eng Engine, src Source) {
	b.Helper()
	res := eng.Run(src, benchDuration(b))
	b.ReportMetric(res.Throughput(), "txns/sec")
	b.ReportMetric(res.Totals.AbortRate()*100, "abort%")
}

// BenchmarkFig1TwoPLReadOnly: Figure 1 — read-only 2PL on a 64-record hot
// set; the paper's demonstration that conflict-free workloads still
// contend physically on the shared lock table.
func BenchmarkFig1TwoPLReadOnly(b *testing.B) {
	for _, threads := range []int{1, 4, 16} {
		b.Run(benchName("threads", threads), func(b *testing.B) {
			db, tbl := newBenchDB()
			eng := NewTwoPL(TwoPLConfig{DB: db, Handler: WaitDie(), Threads: threads})
			src := &YCSB{Table: tbl, NumRecords: benchRecords, OpsPerTxn: 10,
				ReadOnly: true, HotRecords: 64, HotOps: 2}
			reportRun(b, eng, src)
		})
	}
}

// BenchmarkFig4DeadlockHandlers: Figure 4(b) headline — hot set 64,
// 10-RMW, all four deadlock policies.
func BenchmarkFig4DeadlockHandlers(b *testing.B) {
	const threads = 16
	handlers := []struct {
		name string
		h    func() Handler
	}{
		{"deadlock-free", nil},
		{"waitdie", func() Handler { return WaitDie() }},
		{"waitfor", func() Handler { return WaitForGraph(threads) }},
		{"dreadlocks", func() Handler { return Dreadlocks(threads) }},
	}
	for _, hc := range handlers {
		b.Run(hc.name, func(b *testing.B) {
			db, tbl := newBenchDB()
			var eng Engine
			if hc.h == nil {
				eng = NewDeadlockFree(DeadlockFreeConfig{DB: db, Threads: threads})
			} else {
				eng = NewTwoPL(TwoPLConfig{DB: db, Handler: hc.h(), Threads: threads})
			}
			src := &YCSB{Table: tbl, NumRecords: benchRecords, OpsPerTxn: 10,
				HotRecords: 64, HotOps: 2}
			reportRun(b, eng, src)
		})
	}
}

// BenchmarkFig5ThreadAllocation: Figure 5 — fixed CC thread counts,
// growing execution threads, single-partition uniform 10-RMW.
func BenchmarkFig5ThreadAllocation(b *testing.B) {
	for _, cc := range []int{2, 4} {
		for _, ex := range []int{2, 8, 16} {
			b.Run(benchName2("cc", cc, "exec", ex), func(b *testing.B) {
				db, tbl := newBenchDB()
				eng := NewOrthrus(OrthrusConfig{DB: db, CCThreads: cc, ExecThreads: ex})
				src := &YCSB{Table: tbl, NumRecords: benchRecords, OpsPerTxn: 10,
					Partitions: cc, Spread: 1, MultiPartitionPct: 100}
				reportRun(b, eng, src)
			})
		}
	}
}

// BenchmarkFig6MultiPartition: Figure 6 — partitions per transaction.
func BenchmarkFig6MultiPartition(b *testing.B) {
	const parts = 8
	for _, spread := range []int{1, 2, 4, 8} {
		b.Run(benchName("parts", spread), func(b *testing.B) {
			for _, sys := range []string{"partstore", "orthrus", "dlfree"} {
				b.Run(sys, func(b *testing.B) {
					db, tbl := newBenchDB()
					src := &YCSB{Table: tbl, NumRecords: benchRecords, OpsPerTxn: 10,
						Partitions: parts, Spread: spread, MultiPartitionPct: 100}
					var eng Engine
					switch sys {
					case "partstore":
						eng = NewPartitionedStore(PartitionedStoreConfig{DB: db, Partitions: parts})
					case "orthrus":
						eng = NewOrthrus(OrthrusConfig{DB: db, CCThreads: parts, ExecThreads: 8})
					case "dlfree":
						eng = NewDeadlockFree(DeadlockFreeConfig{DB: db, Threads: 16})
					}
					reportRun(b, eng, src)
				})
			}
		})
	}
}

// BenchmarkFig7MultiPartitionPct: Figure 7 — fraction of two-partition
// transactions.
func BenchmarkFig7MultiPartitionPct(b *testing.B) {
	const parts = 8
	for _, pct := range []int{0, 50, 100} {
		b.Run(benchName("mp", pct), func(b *testing.B) {
			for _, sys := range []string{"partstore", "orthrus", "dlfree"} {
				b.Run(sys, func(b *testing.B) {
					db, tbl := newBenchDB()
					src := &YCSB{Table: tbl, NumRecords: benchRecords, OpsPerTxn: 10,
						Partitions: parts, Spread: 2, MultiPartitionPct: pct}
					var eng Engine
					switch sys {
					case "partstore":
						eng = NewPartitionedStore(PartitionedStoreConfig{DB: db, Partitions: parts})
					case "orthrus":
						eng = NewOrthrus(OrthrusConfig{DB: db, CCThreads: parts, ExecThreads: 8})
					case "dlfree":
						eng = NewDeadlockFree(DeadlockFreeConfig{DB: db, Threads: 16})
					}
					reportRun(b, eng, src)
				})
			}
		})
	}
}

func newBenchTPCC(b *testing.B, warehouses int) *TPCCSchema {
	b.Helper()
	s, err := LoadTPCC(TPCCConfig{Warehouses: warehouses, Items: 500, CustomersPerDistrict: 60})
	if err != nil {
		b.Fatal(err)
	}
	return s
}

func tpccBenchEngines(s *TPCCSchema, threads int) map[string]Engine {
	cc := threads / 5
	if cc < 1 {
		cc = 1
	}
	return map[string]Engine{
		"orthrus": NewOrthrus(OrthrusConfig{DB: s.DB, CCThreads: cc, ExecThreads: threads - cc,
			Partition: s.PartitionByWarehouse(cc)}),
		"dlfree":         NewDeadlockFree(DeadlockFreeConfig{DB: s.DB, Threads: threads}),
		"2pl-dreadlocks": NewTwoPL(TwoPLConfig{DB: s.DB, Handler: Dreadlocks(threads), Threads: threads}),
	}
}

// BenchmarkFig8TPCCWarehouses: Figure 8 — TPC-C 50/50 mix across
// warehouse counts (contention decreases as warehouses grow).
func BenchmarkFig8TPCCWarehouses(b *testing.B) {
	const threads = 16
	for _, w := range []int{4, 16, 64} {
		b.Run(benchName("wh", w), func(b *testing.B) {
			for _, sys := range []string{"orthrus", "dlfree", "2pl-dreadlocks"} {
				b.Run(sys, func(b *testing.B) {
					s := newBenchTPCC(b, w)
					eng := tpccBenchEngines(s, threads)[sys]
					reportRun(b, eng, &TPCCMix{S: s})
				})
			}
		})
	}
}

// BenchmarkFig9TPCCScalability: Figure 9 — TPC-C at 16 warehouses,
// growing thread counts.
func BenchmarkFig9TPCCScalability(b *testing.B) {
	for _, threads := range []int{4, 8, 16} {
		b.Run(benchName("threads", threads), func(b *testing.B) {
			for _, sys := range []string{"orthrus", "dlfree", "2pl-dreadlocks"} {
				b.Run(sys, func(b *testing.B) {
					s := newBenchTPCC(b, 16)
					eng := tpccBenchEngines(s, threads)[sys]
					reportRun(b, eng, &TPCCMix{S: s})
				})
			}
		})
	}
}

// BenchmarkFig10Breakdown: Figure 10 — execution-thread time breakdown;
// the exec% metric is the paper's "useful work" fraction.
func BenchmarkFig10Breakdown(b *testing.B) {
	const threads = 16
	for _, cfg := range []struct {
		name string
		w    int
	}{{"low-contention-64wh", 64}, {"high-contention-4wh", 4}} {
		b.Run(cfg.name, func(b *testing.B) {
			for _, sys := range []string{"orthrus", "dlfree", "2pl-dreadlocks"} {
				b.Run(sys, func(b *testing.B) {
					s := newBenchTPCC(b, cfg.w)
					eng := tpccBenchEngines(s, threads)[sys]
					res := eng.Run(&TPCCMix{S: s}, benchDuration(b))
					e, l, w, _ := res.Totals.Breakdown()
					b.ReportMetric(res.Throughput(), "txns/sec")
					b.ReportMetric(e, "exec%")
					b.ReportMetric(l, "lock%")
					b.ReportMetric(w, "wait%")
				})
			}
		})
	}
}

// appendix-style YCSB scalability benches (Figures 11 and 12).
func benchYCSBScal(b *testing.B, readOnly bool, hot uint64) {
	const threads = 16
	cc, ex := threads/5, threads-threads/5
	if cc < 1 {
		cc = 1
	}
	systems := []string{"orthrus-single", "orthrus-dual", "orthrus-random", "dlfree", "2pl-waitdie"}
	for _, sys := range systems {
		b.Run(sys, func(b *testing.B) {
			db, tbl := newBenchDB()
			src := &YCSB{Table: tbl, NumRecords: benchRecords, OpsPerTxn: 10,
				ReadOnly: readOnly, HotRecords: hot}
			if hot > 0 {
				src.HotOps = 2
			}
			var eng Engine
			switch sys {
			case "orthrus-single":
				src.Partitions, src.Spread, src.MultiPartitionPct = cc, 1, 100
				eng = NewOrthrus(OrthrusConfig{DB: db, CCThreads: cc, ExecThreads: ex})
			case "orthrus-dual":
				src.Partitions, src.MultiPartitionPct = cc, 100
				src.Spread = 2
				if cc < 2 {
					src.Spread = 1
				}
				eng = NewOrthrus(OrthrusConfig{DB: db, CCThreads: cc, ExecThreads: ex})
			case "orthrus-random":
				eng = NewOrthrus(OrthrusConfig{DB: db, CCThreads: cc, ExecThreads: ex})
			case "dlfree":
				eng = NewDeadlockFree(DeadlockFreeConfig{DB: db, Threads: threads})
			case "2pl-waitdie":
				eng = NewTwoPL(TwoPLConfig{DB: db, Handler: WaitDie(), Threads: threads})
			}
			reportRun(b, eng, src)
		})
	}
}

// BenchmarkFig11ReadOnly: Figure 11 — YCSB read-only, low (a) and high
// (b) contention.
func BenchmarkFig11ReadOnly(b *testing.B) {
	b.Run("low", func(b *testing.B) { benchYCSBScal(b, true, 0) })
	b.Run("high", func(b *testing.B) { benchYCSBScal(b, true, 64) })
}

// BenchmarkFig12RMW: Figure 12 — YCSB 10RMW, low (a) and high (b)
// contention.
func BenchmarkFig12RMW(b *testing.B) {
	b.Run("low", func(b *testing.B) { benchYCSBScal(b, false, 0) })
	b.Run("high", func(b *testing.B) { benchYCSBScal(b, false, 64) })
}

// --- ablation benches (design choices called out in README.md "Ablations") -----------

// BenchmarkAblationSharedTable compares private per-CC lock tables against
// the §3.4 shared latched table.
func BenchmarkAblationSharedTable(b *testing.B) {
	for _, shared := range []bool{false, true} {
		name := "private"
		if shared {
			name = "shared"
		}
		b.Run(name, func(b *testing.B) {
			db, tbl := newBenchDB()
			eng := NewOrthrus(OrthrusConfig{DB: db, CCThreads: 4, ExecThreads: 8, SharedTable: shared})
			src := &YCSB{Table: tbl, NumRecords: benchRecords, OpsPerTxn: 10,
				HotRecords: 64, HotOps: 2}
			reportRun(b, eng, src)
		})
	}
}

// BenchmarkAblationInflight varies the execution threads' asynchronous
// window (§3.3): 1 approximates synchronous waiting.
func BenchmarkAblationInflight(b *testing.B) {
	for _, window := range []int{1, 4, 16} {
		b.Run(benchName("window", window), func(b *testing.B) {
			db, tbl := newBenchDB()
			eng := NewOrthrus(OrthrusConfig{DB: db, CCThreads: 4, ExecThreads: 8, Inflight: window})
			src := &YCSB{Table: tbl, NumRecords: benchRecords, OpsPerTxn: 10,
				HotRecords: 64, HotOps: 2}
			reportRun(b, eng, src)
		})
	}
}

// BenchmarkAblationBatchSize compares the batched message plane against
// the unbatched baseline (BatchSize=1) on the high-contention YCSB mix:
// the same messages cross the rings, in ~1/k as many atomic operations.
func BenchmarkAblationBatchSize(b *testing.B) {
	for _, bs := range []int{1, 4, 8, 32} {
		b.Run(benchName("batch", bs), func(b *testing.B) {
			db, tbl := newBenchDB()
			eng := NewOrthrus(OrthrusConfig{DB: db, CCThreads: 4, ExecThreads: 8, BatchSize: bs})
			src := &YCSB{Table: tbl, NumRecords: benchRecords, OpsPerTxn: 10,
				HotRecords: 64, HotOps: 2}
			reportRun(b, eng, src)
		})
	}
}

// BenchmarkAblationBatchSizeTransfer is the same comparison on the
// short-transaction transfer workload, where per-message overhead is the
// largest fraction of the work.
func BenchmarkAblationBatchSizeTransfer(b *testing.B) {
	for _, bs := range []int{1, 8} {
		b.Run(benchName("batch", bs), func(b *testing.B) {
			db, tbl := newBenchDB()
			eng := NewOrthrus(OrthrusConfig{DB: db, CCThreads: 4, ExecThreads: 8, BatchSize: bs})
			src := &Transfer{Table: tbl, NumRecords: benchRecords}
			reportRun(b, eng, src)
		})
	}
}

// BenchmarkAblationZipf runs the skew extension: Zipfian access instead of
// the paper's hot/cold mix.
func BenchmarkAblationZipf(b *testing.B) {
	for _, sys := range []string{"orthrus", "dlfree", "2pl-waitdie"} {
		b.Run(sys, func(b *testing.B) {
			db, tbl := newBenchDB()
			src := &Zipf{Table: tbl, NumRecords: benchRecords, OpsPerTxn: 10, Theta: 1.2}
			var eng Engine
			switch sys {
			case "orthrus":
				eng = NewOrthrus(OrthrusConfig{DB: db, CCThreads: 4, ExecThreads: 12})
			case "dlfree":
				eng = NewDeadlockFree(DeadlockFreeConfig{DB: db, Threads: 16})
			case "2pl-waitdie":
				eng = NewTwoPL(TwoPLConfig{DB: db, Handler: WaitDie(), Threads: 16})
			}
			reportRun(b, eng, src)
		})
	}
}

func benchName(k string, v int) string { return k + "=" + itoa(v) }

func benchName2(k1 string, v1 int, k2 string, v2 int) string {
	return benchName(k1, v1) + "/" + benchName(k2, v2)
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// BenchmarkAblationHandlers extends Figure 4's lineup with the two
// extension policies (no-wait, wound-wait) at the headline contention
// point.
func BenchmarkAblationHandlers(b *testing.B) {
	const threads = 16
	handlers := []struct {
		name string
		h    func() Handler
	}{
		{"nowait", func() Handler { return NoWait() }},
		{"woundwait", func() Handler { return WoundWait(threads) }},
		{"waitdie", func() Handler { return WaitDie() }},
	}
	for _, hc := range handlers {
		b.Run(hc.name, func(b *testing.B) {
			db, tbl := newBenchDB()
			eng := NewTwoPL(TwoPLConfig{DB: db, Handler: hc.h(), Threads: threads})
			src := &YCSB{Table: tbl, NumRecords: benchRecords, OpsPerTxn: 10,
				HotRecords: 64, HotOps: 2}
			reportRun(b, eng, src)
		})
	}
}

// BenchmarkAblationForwarding quantifies §3.3 directly: the Ncc+1
// forwarding protocol against the naive 2·Ncc exec-mediated protocol on
// transactions spanning all CC threads.
func BenchmarkAblationForwarding(b *testing.B) {
	for _, naive := range []bool{false, true} {
		name := "forwarding"
		if naive {
			name = "exec-mediated"
		}
		b.Run(name, func(b *testing.B) {
			db, tbl := newBenchDB()
			eng := NewOrthrus(OrthrusConfig{DB: db, CCThreads: 4, ExecThreads: 8,
				DisableForwarding: naive})
			src := &YCSB{Table: tbl, NumRecords: benchRecords, OpsPerTxn: 8,
				Partitions: 4, Spread: 4, MultiPartitionPct: 100}
			reportRun(b, eng, src)
		})
	}
}

// BenchmarkLatency reports commit-latency percentiles alongside
// throughput for the headline high-contention comparison.
func BenchmarkLatency(b *testing.B) {
	const threads = 16
	for _, sys := range []string{"orthrus", "dlfree", "2pl-dreadlocks"} {
		b.Run(sys, func(b *testing.B) {
			db, tbl := newBenchDB()
			var eng Engine
			switch sys {
			case "orthrus":
				eng = NewOrthrus(OrthrusConfig{DB: db, CCThreads: 3, ExecThreads: threads - 3})
			case "dlfree":
				eng = NewDeadlockFree(DeadlockFreeConfig{DB: db, Threads: threads})
			case "2pl-dreadlocks":
				eng = NewTwoPL(TwoPLConfig{DB: db, Handler: Dreadlocks(threads), Threads: threads})
			}
			src := &YCSB{Table: tbl, NumRecords: benchRecords, OpsPerTxn: 10,
				HotRecords: 64, HotOps: 2}
			res := eng.Run(src, benchDuration(b))
			b.ReportMetric(res.Throughput(), "txns/sec")
			b.ReportMetric(float64(res.Totals.Latency.Percentile(50).Microseconds()), "p50-µs")
			b.ReportMetric(float64(res.Totals.Latency.Percentile(99).Microseconds()), "p99-µs")
		})
	}
}

// BenchmarkScanMix: the range-scan extension's headline — a YCSB-E mix
// (20% scans, max length 64) on all four engines, so the per-design cost
// of phantom-safe scans (lazy stripe+record locks vs up-front declaration
// vs partition footprint) is pinned as a benchmark.
func BenchmarkScanMix(b *testing.B) {
	systems := []struct {
		name  string
		build func(db *DB) Engine
	}{
		{"orthrus", func(db *DB) Engine {
			return NewOrthrus(OrthrusConfig{DB: db, CCThreads: 2, ExecThreads: 6})
		}},
		{"dlfree", func(db *DB) Engine {
			return NewDeadlockFree(DeadlockFreeConfig{DB: db, Threads: 8})
		}},
		{"2pl-waitdie", func(db *DB) Engine {
			return NewTwoPL(TwoPLConfig{DB: db, Handler: WaitDie(), Threads: 8})
		}},
		{"partstore", func(db *DB) Engine {
			return NewPartitionedStore(PartitionedStoreConfig{DB: db, Partitions: 8})
		}},
	}
	for _, sys := range systems {
		b.Run(sys.name, func(b *testing.B) {
			db, tbl := newBenchDB()
			src := &YCSB{Table: tbl, NumRecords: benchRecords, OpsPerTxn: 10,
				ScanPct: 20, MaxScanLen: 64}
			if err := src.Validate(); err != nil {
				b.Fatal(err)
			}
			reportRun(b, sys.build(db), src)
		})
	}
}

// BenchmarkReadMostly: the MVCC snapshot-read extension's headline — a
// read-mostly YCSB mix on the contended hot set, comparing the locking
// read path (ReadOnly, plain table) against the snapshot path
// (ReadOnlyPct, versioned table) on all four engines. The acceptance bar
// is snapshot ≥ 1.5× locking at 95% reads on the contended point.
func BenchmarkReadMostly(b *testing.B) {
	systems := []struct {
		name  string
		build func(db *DB) Engine
	}{
		{"orthrus", func(db *DB) Engine {
			return NewOrthrus(OrthrusConfig{DB: db, CCThreads: 2, ExecThreads: 6})
		}},
		{"dlfree", func(db *DB) Engine {
			return NewDeadlockFree(DeadlockFreeConfig{DB: db, Threads: 8})
		}},
		{"2pl-waitdie", func(db *DB) Engine {
			return NewTwoPL(TwoPLConfig{DB: db, Handler: WaitDie(), Threads: 8})
		}},
		{"partstore", func(db *DB) Engine {
			return NewPartitionedStore(PartitionedStoreConfig{DB: db, Partitions: 8})
		}},
	}
	for _, pct := range []int{50, 95} {
		b.Run(benchName("read", pct), func(b *testing.B) {
			for _, mode := range []string{"locking", "snapshot"} {
				b.Run(mode, func(b *testing.B) {
					for _, sys := range systems {
						b.Run(sys.name, func(b *testing.B) {
							db := NewDB()
							tbl := db.Create(Layout{Name: "ycsb", NumRecords: benchRecords,
								RecordSize: 100, Versioned: mode == "snapshot"})
							// Identical mix both ways: on the plain table the
							// ReadOnly-flagged transactions fall back to their
							// declared locking reads; on the versioned table
							// they take the snapshot path.
							src := &YCSB{Table: tbl, NumRecords: benchRecords, OpsPerTxn: 10,
								HotRecords: 64, HotOps: 2, ReadOnlyPct: pct}
							if err := src.Validate(); err != nil {
								b.Fatal(err)
							}
							reportRun(b, sys.build(db), src)
						})
					}
				})
			}
		})
	}
}

package harness

import (
	"fmt"

	"repro/internal/deadlock"
	"repro/internal/engine"
	"repro/internal/engine/locking"
	"repro/internal/orthrus"
	"repro/internal/workload"
)

// scanExp: the range-scan extension (not a paper figure — the paper's
// workloads are all point accesses, and its prototype scopes phantom
// protection out entirely). The experiment sweeps a YCSB-E-style mix —
// scan fraction × maximum scan length — across all four engines and
// reports throughput, p99 service latency and scanned rows/s, so the
// cost of first-class phantom-safe scans is measurable per concurrency
// control design: 2PL pays lazy per-record + stripe locks, the planned
// engines pay up-front declaration of every scanned record, and
// Partitioned-store pays the partition footprint of the whole range
// (which under hash partitioning is every partition — the H-Store
// collapse, now visible on scans too). Config.ScanPct / Config.ScanMaxLen
// pin the sweep to a single point.
func scanExp(c Config) {
	header(c, "Range scans: throughput and p99 vs scan fraction x max scan length")
	threads := 8
	if threads > c.MaxThreads {
		threads = c.MaxThreads
	}
	cc, exec := ccSplit(threads)

	fracs := []int{5, 20}
	if c.ScanPct > 0 {
		fracs = []int{c.ScanPct}
	}
	lens := []int{16, 128}
	if c.ScanMaxLen > 0 {
		lens = []int{c.ScanMaxLen}
	}
	for i, l := range lens {
		if uint64(l) > c.Records {
			lens[i] = int(c.Records)
		}
	}

	names := []string{"orthrus", "dlfree", "2pl-waitdie", "partstore"}
	fmt.Fprintf(c.Out, "%-14s", "scan%xlen")
	for _, s := range names {
		fmt.Fprintf(c.Out, " %16s", s)
	}
	fmt.Fprintln(c.Out)

	for _, frac := range fracs {
		for _, maxLen := range lens {
			tps := make([]float64, 0, len(names))
			p99 := make([]int64, 0, len(names))
			rows := make([]float64, 0, len(names))
			for _, sys := range names {
				db, tbl := newYCSBDB(c)
				src := &workload.YCSB{
					Table: tbl, NumRecords: c.Records, OpsPerTxn: 10,
					ScanPct: frac, MaxScanLen: maxLen,
				}
				if err := src.Validate(); err != nil {
					panic(err)
				}
				var eng engine.Engine
				switch sys {
				case "orthrus":
					eng = orthrus.New(orthrus.Config{DB: db, CCThreads: cc, ExecThreads: exec})
				case "dlfree":
					eng = locking.New(locking.Config{DB: db, Threads: threads})
				case "2pl-waitdie":
					eng = locking.New(locking.Config{DB: db, Handler: deadlock.WaitDie{}, Threads: threads})
				default:
					eng = locking.New(locking.Config{DB: db, Partitions: threads})
				}
				res := point(c, eng, src)
				tps = append(tps, res.Throughput())
				p99 = append(p99, res.Totals.Latency.Percentile(99).Microseconds())
				rows = append(rows, float64(res.Totals.Scanned)/res.Duration.Seconds())
			}
			x := fmt.Sprintf("%d%%x%d", frac, maxLen)
			fmt.Fprintf(c.Out, "%-14s", x)
			for _, v := range tps {
				fmt.Fprintf(c.Out, " %16.0f", v)
			}
			fmt.Fprintln(c.Out)
			fmt.Fprintf(c.Out, "  %-12s p99_us:", "")
			for i, v := range p99 {
				fmt.Fprintf(c.Out, " %s=%d", names[i], v)
			}
			fmt.Fprintf(c.Out, "   rows/s:")
			for i, v := range rows {
				fmt.Fprintf(c.Out, " %s=%.0f", names[i], v)
			}
			fmt.Fprintln(c.Out)
			series := map[string]interface{}{}
			for i, n := range names {
				series[n] = tps[i]
				series[n+"_p99_us"] = p99[i]
				series[n+"_rows_per_s"] = rows[i]
			}
			c.JSONRow(map[string]interface{}{
				"x_label": "scan_pct_x_max_len", "x": x,
				"scan_pct": frac, "max_scan_len": maxLen,
				"series": series,
			})
		}
	}
}

package harness

import (
	"fmt"
	"math/rand"

	"repro/internal/deadlock"
	"repro/internal/engine"
	"repro/internal/engine/locking"
	"repro/internal/orthrus"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/workload"
)

// htapSource mixes a contended Transfer write stream with long analytics
// scans: scanPct percent of transactions are Analytics scans, the rest
// two-record transfers on a small hot set. It is the HTAP shape the
// snapshot-read extension targets — analytical readers that, on the
// locking path, either serialize entire partitions (partitioned store)
// or drag hundreds of record locks through the write mix.
type htapSource struct {
	writers *workload.Transfer
	scans   *workload.Analytics
	scanPct int
}

func (s *htapSource) Next(thread int, rng *rand.Rand) *txn.Txn {
	if rng.Intn(100) < s.scanPct {
		return s.scans.Next(thread, rng)
	}
	return s.writers.Next(thread, rng)
}

// htapExp: the MVCC snapshot-read extension's headline. For each engine,
// the same HTAP mix runs twice: once with locking scans on a plain table
// (the pre-MVCC baseline, including its freedom from version-install
// costs) and once with snapshot scans on a versioned table. Reported per
// (engine, mode): committed tps, p99 service latency, abort rate,
// scanned rows/s, and — snapshot mode only — the mean snapshot staleness
// in LSNs behind the commit frontier's tail. Config.ReadOnlyPct pins the
// analytics fraction (default 20%).
func htapExp(c Config) {
	header(c, "HTAP: snapshot vs locking analytics scans under a contended transfer mix")
	threads := 8
	if threads > c.MaxThreads {
		threads = c.MaxThreads
	}
	cc, exec := ccSplit(threads)

	scanPct := c.ReadOnlyPct
	if scanPct == 0 {
		scanPct = 20
	}
	scanLen := 256
	if uint64(scanLen) > c.Records {
		scanLen = int(c.Records)
	}
	hot := uint64(1024)
	if hot > c.Records {
		hot = c.Records
	}
	fmt.Fprintf(c.Out, "mix: %d%% analytics scans of %d rows, transfers on a %d-record hot set\n",
		scanPct, scanLen, hot)

	names := []string{"orthrus", "dlfree", "2pl-waitdie", "partstore"}
	for _, mode := range []string{"locking", "snapshot"} {
		snapshot := mode == "snapshot"
		fmt.Fprintf(c.Out, "%-14s", mode)
		for _, s := range names {
			fmt.Fprintf(c.Out, " %16s", s)
		}
		fmt.Fprintln(c.Out)

		tps := make([]float64, 0, len(names))
		p99 := make([]int64, 0, len(names))
		aborts := make([]float64, 0, len(names))
		rows := make([]float64, 0, len(names))
		stale := make([]float64, 0, len(names))
		for _, sys := range names {
			db := storage.NewDB()
			tbl := db.Create(storage.Layout{
				Name: "ycsb", NumRecords: c.Records, RecordSize: c.RecordSize,
				Versioned: snapshot,
			})
			src := &htapSource{
				writers: &workload.Transfer{Table: tbl, NumRecords: c.Records, HotRecords: hot},
				scans:   &workload.Analytics{Table: tbl, NumRecords: c.Records, ScanLen: scanLen, Snapshot: snapshot},
				scanPct: scanPct,
			}
			if err := src.scans.Validate(); err != nil {
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
			aborts = append(aborts, res.Totals.AbortRate())
			rows = append(rows, float64(res.Totals.Scanned)/res.Duration.Seconds())
			stale = append(stale, res.Totals.SnapStaleness())
		}
		fmt.Fprintf(c.Out, "%-14s", "tps")
		for _, v := range tps {
			fmt.Fprintf(c.Out, " %16.0f", v)
		}
		fmt.Fprintln(c.Out)
		fmt.Fprintf(c.Out, "  p99_us:")
		for i, v := range p99 {
			fmt.Fprintf(c.Out, " %s=%d", names[i], v)
		}
		fmt.Fprintf(c.Out, "\n  abort%%:")
		for i, v := range aborts {
			fmt.Fprintf(c.Out, " %s=%.1f", names[i], v*100)
		}
		fmt.Fprintf(c.Out, "\n  rows/s:")
		for i, v := range rows {
			fmt.Fprintf(c.Out, " %s=%.0f", names[i], v)
		}
		if snapshot {
			fmt.Fprintf(c.Out, "\n  stale_lsn:")
			for i, v := range stale {
				fmt.Fprintf(c.Out, " %s=%.1f", names[i], v)
			}
		}
		fmt.Fprintln(c.Out)

		series := map[string]interface{}{}
		for i, n := range names {
			series[n] = tps[i]
			series[n+"_p99_us"] = p99[i]
			series[n+"_abort_rate"] = aborts[i]
			series[n+"_rows_per_s"] = rows[i]
			if snapshot {
				series[n+"_stale_lsn"] = stale[i]
			}
		}
		c.JSONRow(map[string]interface{}{
			"x_label": "mode", "x": mode,
			"scan_pct": scanPct, "scan_len": scanLen, "hot_records": hot,
			"series": series,
		})
	}
}

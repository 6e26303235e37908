package harness

import (
	"fmt"
	"time"

	"repro/internal/deadlock"
	"repro/internal/engine"
	"repro/internal/engine/dlfree"
	"repro/internal/engine/twopl"
	"repro/internal/orthrus"
	"repro/internal/partstore"
	"repro/internal/storage"
	"repro/internal/tpcc"
	"repro/internal/wal"
	"repro/internal/workload"
)

// durabilityPolicies is the sync-policy axis: the no-WAL baseline, async
// (background flush, instant acknowledgment), self-clocked group commit
// (no fill window: a pass's group is what arrived during the previous
// pass), and two timed fill windows — the trade between commit latency
// and records per sync that an explicit Interval buys.
func durabilityPolicies() []wal.SyncPolicy {
	return []wal.SyncPolicy{
		wal.Off(),
		wal.Async(),
		wal.Group(0, 0),
		wal.Group(64, 200*time.Microsecond),
		wal.Group(256, time.Millisecond),
	}
}

// durability: the commit-pipeline extension (not a paper figure). The
// paper acknowledges commits the instant execution finishes (§3 scopes
// durability out); this experiment measures what acknowledgment-after-
// flush costs across sync policies and fill windows, on the transfer
// workload (every engine) and the TPC-C mix (the §4.4 lineup). With the
// policy off the two-stage pipeline must be free — those rows are the
// regression guard for the refactor. The flush lines report the achieved
// group-commit amortization (records per device sync) and the log share
// of accounted time, the new fourth component of the Figure 10 split.
func durability(c Config) {
	header(c, "Durability: throughput and commit latency vs WAL sync policy")
	threads := 8
	if threads > c.MaxThreads {
		threads = c.MaxThreads
	}
	cc, exec := ccSplit(threads)

	// rebuild, when non-nil, returns a fresh database holding the
	// workload's initial state; the first engine's log is then replayed
	// onto it and the wall-clock recovery time reported per policy row —
	// the restart-cost column the recovery experiment explores in depth.
	run := func(workloadName string, names []string, rebuild func() *storage.DB, build func(sys string, log *wal.Log) (engine.Engine, workload.Source)) {
		fmt.Fprintf(c.Out, "\n%s workload (%d threads):\n", workloadName, threads)
		fmt.Fprintf(c.Out, "%-18s", "policy")
		for _, s := range names {
			fmt.Fprintf(c.Out, " %16s", s)
		}
		fmt.Fprintln(c.Out)
		for _, policy := range durabilityPolicies() {
			tps := make([]float64, 0, len(names))
			p99 := make([]int64, 0, len(names))
			var logShare float64
			var st wal.Stats
			recoveryMs := -1.0
			for _, sys := range names {
				var log *wal.Log
				var dev *wal.MemSegments
				if policy.Mode != wal.SyncOff {
					dev = wal.NewMemSegments(0)
					log = wal.NewLog(dev, policy)
				}
				eng, src := build(sys, log)
				res := point(c, eng, src)
				tps = append(tps, res.Throughput())
				p99 = append(p99, res.Totals.Latency.Percentile(99).Microseconds())
				first := sys == names[0]
				if first {
					_, _, _, logShare = res.Totals.Breakdown()
					st = log.Stats()
				}
				if err := log.Close(); err != nil {
					panic(err)
				}
				if first && dev != nil && rebuild != nil {
					t0 := time.Now()
					wal.Replay(dev.CrashSegments(), 0, 1, rebuild())
					recoveryMs = float64(time.Since(t0).Microseconds()) / 1000
				}
			}
			fmt.Fprintf(c.Out, "%-18s", policy)
			for _, v := range tps {
				fmt.Fprintf(c.Out, " %16.0f", v)
			}
			fmt.Fprintln(c.Out)
			fmt.Fprintf(c.Out, "  %-16s p99_us:", "")
			for i, v := range p99 {
				fmt.Fprintf(c.Out, " %s=%d", names[i], v)
			}
			if policy.Mode != wal.SyncOff {
				fmt.Fprintf(c.Out, "   [%s: %d recs / %d syncs = %.1f recs/sync, log=%.1f%%]",
					names[0], st.Records, st.Syncs, float64(st.Records)/max(1, float64(st.Syncs)), logShare)
				if recoveryMs >= 0 {
					fmt.Fprintf(c.Out, " [recovery=%.1fms]", recoveryMs)
				}
			}
			fmt.Fprintln(c.Out)
			series := map[string]interface{}{}
			for i, n := range names {
				series[n] = tps[i]
				series[n+"_p99_us"] = p99[i]
			}
			if recoveryMs >= 0 {
				series["recovery_ms"] = recoveryMs
			}
			c.JSONRow(map[string]interface{}{
				"workload": workloadName, "x_label": "policy", "x": policy.String(),
				"series": series,
			})
		}
	}

	run("transfer", []string{"orthrus", "dlfree", "2pl-waitdie", "partstore"},
		func() *storage.DB { db, _ := newYCSBDB(c); return db },
		func(sys string, log *wal.Log) (engine.Engine, workload.Source) {
			db, tbl := newYCSBDB(c)
			src := &workload.Transfer{Table: tbl, NumRecords: c.Records}
			switch sys {
			case "orthrus":
				return orthrus.New(orthrus.Config{DB: db, CCThreads: cc, ExecThreads: exec, Wal: log}), src
			case "dlfree":
				return dlfree.New(dlfree.Config{DB: db, Threads: threads, Wal: log}), src
			case "2pl-waitdie":
				return twopl.New(twopl.Config{DB: db, Handler: deadlock.WaitDie{}, Threads: threads, Wal: log}), src
			default:
				return partstore.New(partstore.Config{DB: db, Partitions: threads, Wal: log}), src
			}
		})

	// TPC-C initial state is load-generated, not cheaply rebuildable here,
	// so its rows carry no recovery column.
	run("tpcc", []string{"orthrus", "dlfree", "2pl-dreadlocks"},
		nil,
		func(sys string, log *wal.Log) (engine.Engine, workload.Source) {
			s := tpccSchema(c, 8)
			src := &tpcc.Mix{S: s}
			switch sys {
			case "orthrus":
				return orthrus.New(orthrus.Config{DB: s.DB, CCThreads: cc, ExecThreads: exec,
					Partition: s.PartitionByWarehouse(cc), Wal: log}), src
			case "dlfree":
				return dlfree.New(dlfree.Config{DB: s.DB, Threads: threads, Wal: log}), src
			default:
				return twopl.New(twopl.Config{DB: s.DB, Handler: deadlock.NewDreadlocks(threads), Threads: threads, Wal: log}), src
			}
		})
}

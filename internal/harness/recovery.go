package harness

import (
	"fmt"
	"time"

	"repro/internal/deadlock"
	"repro/internal/engine"
	"repro/internal/engine/locking"
	"repro/internal/orthrus"
	"repro/internal/storage"
	"repro/internal/wal"
	"repro/internal/workload"
)

// recoveryExp: the checkpoint/recovery extension (not a paper figure).
// Each engine runs the transfer workload against a self-clocked
// segmented WAL under three checkpoint regimes — none, one checkpoint per
// run, several per run — then "crashes" and recovers from the surviving
// segments plus the newest checkpoint. The rows show that the log tail a
// recovery replays is bounded by the checkpoint interval, not by total
// history: applied records shrink as the interval does, and truncation
// drops whole segments.
func recoveryExp(c Config) {
	header(c, "Recovery: restart time vs checkpoint interval")
	threads := 8
	if threads > c.MaxThreads {
		threads = c.MaxThreads
	}
	cc, exec := ccSplit(threads)

	intervals := []struct {
		name string
		d    time.Duration
	}{
		{"off", 0},
		{"run/2", c.Duration / 2},
		{"run/8", c.Duration / 8},
	}
	names := []string{"orthrus", "dlfree", "2pl-waitdie", "partstore"}
	build := func(sys string, db *storage.DB, tbl int, log *wal.Log, ck engine.CheckpointConfig) (engine.Engine, workload.Source) {
		src := &workload.Transfer{Table: tbl, NumRecords: c.Records}
		switch sys {
		case "orthrus":
			return orthrus.New(orthrus.Config{DB: db, CCThreads: cc, ExecThreads: exec, Wal: log, Checkpoint: ck}), src
		case "dlfree":
			return locking.New(locking.Config{DB: db, Threads: threads, Wal: log, Checkpoint: ck}), src
		case "2pl-waitdie":
			return locking.New(locking.Config{DB: db, Handler: deadlock.WaitDie{}, Threads: threads, Wal: log, Checkpoint: ck}), src
		default:
			return locking.New(locking.Config{DB: db, Partitions: threads, Wal: log, Checkpoint: ck}), src
		}
	}

	fmt.Fprintf(c.Out, "\ntransfer workload (%d threads):\n", threads)
	fmt.Fprintf(c.Out, "%-12s %-8s %10s %9s %9s %9s %10s\n",
		"engine", "ckpt", "commits", "segments", "restored", "applied", "recover_ms")
	for _, sys := range names {
		for _, iv := range intervals {
			db, tbl := newYCSBDB(c)
			dev := wal.NewMemSegments(256 << 10)
			log := wal.NewLog(dev, wal.Group(0, 0))
			var ck engine.CheckpointConfig
			var store *wal.MemCheckpointStore
			if iv.d > 0 {
				store = wal.NewMemCheckpointStore()
				ck = engine.CheckpointConfig{Store: store, Interval: iv.d}
			}
			eng, src := build(sys, db, tbl, log, ck)
			res := point(c, eng, src)
			if err := log.Close(); err != nil {
				panic(err)
			}
			segs := dev.CrashSegments()
			// A typed-nil *MemCheckpointStore must not reach Recover as a
			// non-nil interface.
			var cs wal.CheckpointStore
			if store != nil {
				cs = store
			}

			fresh, _ := newYCSBDB(c)
			t0 := time.Now()
			st, err := wal.Recover(cs, segs, fresh)
			if err != nil {
				panic(err)
			}
			ms := float64(time.Since(t0).Microseconds()) / 1000

			fmt.Fprintf(c.Out, "%-12s %-8s %10d %9d %9d %9d %10.1f\n",
				sys, iv.name, res.Totals.Committed, len(segs), st.RecordsRestored, st.Replay.Applied, ms)
			c.JSONRow(map[string]interface{}{
				"workload": "transfer", "x_label": "interval", "x": iv.name,
				"series": map[string]interface{}{
					"engine":           sys,
					"commits":          res.Totals.Committed,
					"segments":         len(segs),
					"truncated":        dev.Truncated(),
					"used_checkpoint":  st.UsedCheckpoint,
					"records_restored": st.RecordsRestored,
					"tail_scanned":     st.Replay.Scanned,
					"tail_skipped":     st.Replay.Skipped,
					"tail_applied":     st.Replay.Applied,
					"recover_ms":       ms,
				},
			})
		}
	}
}

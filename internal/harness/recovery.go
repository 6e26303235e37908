package harness

import (
	"fmt"
	"runtime"
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
// Each engine runs the transfer workload against an async segmented WAL
// under three checkpoint regimes — none, one checkpoint per run, several
// per run — then "crashes" and recovers from the surviving segments plus
// the newest checkpoint, once serially and once with partition-parallel
// replay. Two effects should be visible in the rows: the log tail a
// recovery replays is bounded by the checkpoint interval, not by total
// history (applied records shrink as the interval does, and truncation
// drops whole segments), and parallel replay beats serial by roughly the
// worker count on a multi-core machine once the tail is large enough to
// amortize the scan fan-out.
func recoveryExp(c Config) {
	header(c, "Recovery: restart time vs checkpoint interval, parallel vs serial replay")
	threads := 8
	if threads > c.MaxThreads {
		threads = c.MaxThreads
	}
	cc, exec := ccSplit(threads)
	workers := runtime.GOMAXPROCS(0)

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

	fmt.Fprintf(c.Out, "\ntransfer workload (%d threads, %d replay workers):\n", threads, workers)
	fmt.Fprintf(c.Out, "%-12s %-8s %10s %9s %9s %9s %10s %11s %8s\n",
		"engine", "ckpt", "commits", "segments", "restored", "applied", "serial_ms", "parallel_ms", "speedup")
	for _, sys := range names {
		for _, iv := range intervals {
			db, tbl := newYCSBDB(c)
			dev := wal.NewMemSegments(256 << 10)
			log := wal.NewLog(dev, wal.Async())
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

			runRecovery := func(w int) (wal.RecoverStats, float64) {
				fresh, _ := newYCSBDB(c)
				t0 := time.Now()
				st, err := wal.Recover(cs, segs, fresh, w)
				if err != nil {
					panic(err)
				}
				return st, float64(time.Since(t0).Microseconds()) / 1000
			}
			stSerial, serialMs := runRecovery(1)
			stPar, parMs := runRecovery(workers)
			if stSerial.Replay.Applied != stPar.Replay.Applied ||
				stSerial.Replay.AppliedLSN != stPar.Replay.AppliedLSN {
				panic(fmt.Sprintf("harness: parallel recovery diverged from serial: %+v vs %+v",
					stPar.Replay, stSerial.Replay))
			}
			speedup := serialMs / max(parMs, 0.001)

			fmt.Fprintf(c.Out, "%-12s %-8s %10d %9d %9d %9d %10.1f %11.1f %7.1fx\n",
				sys, iv.name, res.Totals.Committed, len(segs),
				stSerial.RecordsRestored, stSerial.Replay.Applied, serialMs, parMs, speedup)
			c.JSONRow(map[string]interface{}{
				"workload": "transfer", "x_label": "interval", "x": iv.name,
				"series": map[string]interface{}{
					"engine":           sys,
					"commits":          res.Totals.Committed,
					"segments":         len(segs),
					"truncated":        dev.Truncated(),
					"used_checkpoint":  stSerial.UsedCheckpoint,
					"records_restored": stSerial.RecordsRestored,
					"tail_scanned":     stSerial.Replay.Scanned,
					"tail_skipped":     stSerial.Replay.Skipped,
					"tail_applied":     stSerial.Replay.Applied,
					"serial_ms":        serialMs,
					"parallel_ms":      parMs,
					"speedup":          speedup,
				},
			})
		}
	}
}

package harness

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/orthrus"
	"repro/internal/txn"
	"repro/internal/workload"
)

// adaptive: the elastic CC plane extension (not a paper figure). The
// paper's Figure 5 shows the right CC:exec provisioning is
// workload-dependent; ORTHRUS's partitioned-functionality design is what
// makes re-provisioning *possible*, and two-level routing plus live
// migration makes it *happen*. This experiment offers a non-stationary
// workload — a Zipfian head on the first range partition, then a
// mid-run jump of the hot window to the middle of the key space — to
// two identical engines: one with the static default routing, one with
// the adaptive controller enabled. The key space is range-partitioned so
// the skew physically concentrates on few logical partitions; the static
// mapping leaves every partition sharing a CC thread with the hot one
// starved behind it, while the controller sheds those partitions to
// other CC threads and re-sheds after the hot set moves.
//
// Output is a throughput time series (one bucket per row) for both
// engines on the same phase schedule, then the phase-B comparison and
// the controller's activity counters.
func adaptive(c Config) {
	threads := 8
	if threads > c.MaxThreads {
		threads = c.MaxThreads
	}
	cc := 2
	exec := threads - cc
	if exec < 1 {
		exec = 1
	}
	const parts = 16 // logical partitions: 8× the CC threads
	records := c.Records
	phaseLen := 2 * c.Duration
	const bucketsPerPhase = 4
	buckets := 2 * bucketsPerPhase
	bucket := phaseLen / bucketsPerPhase

	header(c, fmt.Sprintf("Adaptive: elastic vs static CC routing across a hot-set shift (%dcc/%dex, %d logical partitions)", cc, exec, parts))
	fmt.Fprintf(c.Out, "phase A: zipf(1.4) head on partition 0; phase B (t>=%v): hot window moved to the middle of the key space\n", phaseLen)

	run := func(elastic bool) ([]float64, orthrus.ControllerStats) {
		db, tbl := newYCSBDB(c)
		cfg := orthrus.Config{
			DB: db, CCThreads: cc, ExecThreads: exec,
			LogicalPartitions: parts,
			Partition:         txn.RangePartitioner(parts, records),
		}
		if elastic {
			// MinActive pins the active set to every CC thread: the
			// comparison isolates partition *rebalancing* (static vs
			// elastic ownership), not down-provisioning, which would
			// otherwise fold the two effects together.
			cfg.Controller = orthrus.ControllerConfig{Enable: true,
				Interval: 2 * time.Millisecond, MinActive: cc}
		}
		eng := orthrus.New(cfg)
		src := &workload.Phased{Phases: []workload.Phase{
			{Src: &workload.YCSB{Table: tbl, NumRecords: records, OpsPerTxn: 10,
				ZipfTheta: 1.4}, For: phaseLen},
			{Src: &workload.YCSB{Table: tbl, NumRecords: records, OpsPerTxn: 10,
				HotRecords: records / parts, HotStart: records / 2, HotOps: 5}},
		}}
		if err := src.Validate(); err != nil {
			panic(err)
		}

		ses := eng.Start()
		var commits atomic.Uint64
		var stop atomic.Bool
		var wg sync.WaitGroup
		for i := 0; i < eng.Clients(); i++ {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(id)*7919 + 17))
				done := make(chan struct{}, 1)
				cb := func(bool) {
					commits.Add(1)
					done <- struct{}{}
				}
				for !stop.Load() {
					ses.Submit(src.Next(id, rng), cb)
					<-done
				}
			}(i)
		}

		// Align the sampling buckets with the phase clock: Phased's
		// schedule starts at the first Next call, not at Start.
		for src.Elapsed() == 0 {
			time.Sleep(50 * time.Microsecond)
		}
		series := make([]float64, 0, buckets)
		last := uint64(0)
		for b := 0; b < buckets; b++ {
			time.Sleep(bucket)
			cur := commits.Load()
			series = append(series, float64(cur-last)/bucket.Seconds())
			last = cur
		}
		stop.Store(true)
		wg.Wait()
		ses.Close()
		c.noteWorkers(eng)
		return series, eng.ControllerStats()
	}

	static, _ := run(false)
	elastic, cs := run(true)

	t := newTable(c, "t_ms", []string{"static", "elastic"})
	for b := 0; b < buckets; b++ {
		t.row(int64((time.Duration(b+1)*bucket)/time.Millisecond), []float64{static[b], elastic[b]})
	}

	mean := func(s []float64) float64 {
		var sum float64
		for _, v := range s {
			sum += v
		}
		return sum / float64(len(s))
	}
	staticB, elasticB := mean(static[bucketsPerPhase:]), mean(elastic[bucketsPerPhase:])
	ratio := 0.0
	if staticB > 0 {
		ratio = elasticB / staticB
	}
	fmt.Fprintf(c.Out, "phase-B mean throughput: static %.0f, elastic %.0f txns/s (elastic/static = %.2f)\n",
		staticB, elasticB, ratio)
	fmt.Fprintf(c.Out, "controller: samples=%d migrations=%d partitions_moved=%d grows=%d shrinks=%d active_cc=%d final_epoch=%d\n",
		cs.Samples, cs.Migrations, cs.PartitionsMoved, cs.Grows, cs.Shrinks, cs.ActiveCC, cs.FinalEpoch)
	c.JSONRow(map[string]interface{}{
		"summary":          "phase_b",
		"static_tps":       staticB,
		"elastic_tps":      elasticB,
		"ratio":            ratio,
		"migrations":       cs.Migrations,
		"partitions_moved": cs.PartitionsMoved,
		"final_epoch":      cs.FinalEpoch,
	})
}

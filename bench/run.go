package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"slices"
	"syscall"
	"time"

	"repro/internal/wal"
)

// options shape one pass over one workload.
type options struct {
	seed    int64
	seconds float64 // measured seconds in the pass
	trace   bool
	setups  int    // set-ups timed; the median is reported, the last one is used
	outDir  string // where the traced pass writes its spans
	quick   bool   // smoke run: a tenth of the warm-up
	// counterSkew is added to the expected counter sum; non-zero only in
	// the test that proves a broken check fails the run.
	counterSkew uint64
}

// runResult is one pass over one workload.
type runResult struct {
	Workload  string           `json:"workload"`
	Seed      int64            `json:"seed"`
	Trace     int              `json:"trace"`
	Seconds   float64          `json:"seconds"`
	Correct   bool             `json:"correct"`
	Attempted uint64           `json:"attempted"`
	Failed    uint64           `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
	Checks    []check          `json:"checks"`
	// Windows holds the per-window series the medians were taken over, so
	// a result file can be re-reduced: closed-phase committed txn/s and
	// open-phase median latency in µs.
	Windows map[string][]float64 `json:"windows"`
	// Invalid lists metrics whose own validity condition failed (the
	// generator, not the engine, was measured); Notes says why.
	Invalid []string `json:"invalid,omitempty"`
	Notes   []string `json:"notes,omitempty"`
}

// Every phase is cut into windows of seconds/windowsPerRun; a reported
// number is the median over a phase's windows.
const windowsPerRun = 32

// segments is how many times a pass alternates between its phases.
const segments = 4

// The fuzzy checkpointer's interval is seconds/checkpointsPerRun, so a
// pass sees enough cycles for log truncation to level off whatever its
// length.
const checkpointsPerRun = 16

// runPass sets the workload up, drives it, verifies its outputs and
// reduces the measurements to the pass's metric list.
//
// Untraced pass: warm-up → closed phase (half the windows) and open phase
// (the other half), and the end-to-end metrics. Traced pass: warm-up →
// an untraced closed phase (a quarter of the windows, the base tracing
// overhead is measured against), a traced closed phase (a quarter) and a
// traced open phase (half) → layer replay, and the per-layer metrics.
// The phases of a pass are driven in interleaved segments.
func runPass(sp *spec, o options) (*runResult, error) {
	res := &runResult{Workload: sp.name, Seed: o.seed, Seconds: o.seconds}
	if o.trace {
		res.Trace = 1
	}
	length := time.Duration(o.seconds * float64(time.Second))
	winLen := length / windowsPerRun

	// Set-up, timed as a user pays it. Repeated so that one slow page
	// fault storm does not set the number; earlier set-ups are closed.
	var sys *system
	setupTimes := make([]float64, 0, o.setups)
	for i := 0; i < o.setups; i++ {
		if sys != nil {
			sys.close()
			sys = nil
		}
		runtime.GC() // keep the previous set-up's garbage out of this one's time
		t0 := time.Now()
		var err error
		if sys, err = setup(sp, length/checkpointsPerRun); err != nil {
			return nil, err
		}
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
	}

	d := newDriver(sys.ses, sys.src, o.seed)
	warmup, levelOff := sp.warmup, sp.levelOff
	if o.quick {
		warmup, levelOff = warmup/10, levelOff/10
	}
	d.warmup(warmup)

	// The live heap a warmed-up engine holds: table, rings, pools and (on
	// durable) the log of the warm-up's transactions — the same work every
	// run, because the warm-up is a count. The benchmark's own sample
	// buffers are allocated after this point.
	var mem runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&mem)
	liveHeapMB := float64(mem.HeapInuse) / 1e6

	d.warmup(levelOff)

	stopSampler := func() []float64 { return nil }
	if sys.log != nil {
		stopSampler = sampleDurableLag(sys.log, winLen)
	}

	// The phases are driven in interleaved segments — closed, open,
	// closed, open, … — so that a disturbance lasting seconds (CPU steal
	// on a shared box) lands on a minority of every metric's windows and
	// the median over windows discards it, instead of owning one phase.
	closedWindows, openWindows := windowsPerRun/2, windowsPerRun/2
	var base *phaseRec // untraced closed phase the traced one is compared with
	var spans *spanBuf
	if o.trace {
		closedWindows = windowsPerRun / 4
		base = newPhase("closed", winLen, closedWindows, int(400_000*winLen.Seconds()))
		spans = newSpanBuf(1 << 16)
	}
	closed := newPhase("closed", winLen, closedWindows, int(400_000*winLen.Seconds()))
	open := newPhase("open", winLen, openWindows, int(1.5*sp.rate*winLen.Seconds())+64)
	openSegment := int64(openWindows/segments) * int64(winLen)
	schedule := poissonSchedule(o.seed, sp.rate, time.Duration(openWindows)*winLen)

	var mallocs uint64
	var openCPU time.Duration
	for seg := 0; seg < segments; seg++ {
		if o.trace {
			d.spans = nil
			d.closed(base, closedWindows/segments)
			d.spans = spans
		}
		runtime.ReadMemStats(&mem)
		mallocs -= mem.Mallocs
		d.closed(closed, closedWindows/segments)
		runtime.ReadMemStats(&mem)
		mallocs += mem.Mallocs

		// This segment's slice of the arrival timeline.
		from, to := int64(seg)*openSegment, int64(seg+1)*openSegment
		first, _ := slices.BinarySearch(schedule, from)
		last, _ := slices.BinarySearch(schedule, to)
		cpu0 := cpuTime()
		d.open(open, openWindows/segments, schedule[first:last], from)
		openCPU += cpuTime() - cpu0
	}
	lagSamples := stopSampler()

	c := sys.close()
	checks, rec := verify(sys, d, &c, o.counterSkew)
	res.Checks = checks
	res.Attempted = d.submitted
	res.Failed = d.failed
	for _, ck := range checks {
		if !ck.OK {
			res.Failed++
		}
	}
	res.Correct = res.Failed == 0

	p50s := open.lat.windowQuantiles(0.5)
	for i := range p50s {
		p50s[i] /= 1e3
	}
	res.Windows = map[string][]float64{"closed_tps": closed.throughputs(), "open_p50_us": p50s}

	lateFrac := median(open.lateFracs())
	if lateFrac > 0.01 {
		res.Invalid = append(res.Invalid, "lat_p50_us")
		res.Notes = append(res.Notes, fmt.Sprintf("open phase: window-median late_frac %.4f > 0.01 — the generator, not the engine, set the open-phase latencies", lateFrac))
	}

	if !o.trace {
		m := newMetricSet(endToEnd)
		m.set("throughput_tps", median(closed.throughputs()))
		m.set("lat_p50_us", median(p50s))
		m.set("live_heap_mb", liveHeapMB)
		m.set("setup_s", median(setupTimes))
		res.Metrics = m.finish()
		return res, nil
	}

	ms := &measured{sp: sp, sys: sys, c: &c, rec: rec, seed: o.seed, outDir: o.outDir, spans: spans,
		base: base, closed: closed, open: open, arrivals: len(schedule), lateFrac: lateFrac,
		mallocs: mallocs, openCPU: openCPU, lagSamples: lagSamples}
	if err := perLayerMetrics(ms, res); err != nil {
		return nil, err
	}
	return res, nil
}

// measured is what a traced pass hands to the per-layer reduction.
type measured struct {
	sp     *spec
	sys    *system
	c      *sessionStats
	rec    recovery
	seed   int64
	outDir string
	spans  *spanBuf

	base, closed, open *phaseRec
	arrivals           int // scheduled in the open phase
	lateFrac           float64
	mallocs            uint64 // over the traced closed phase
	openCPU            time.Duration
	lagSamples         []float64
}

// perLayerMetrics reduces a traced pass to the per-layer list: counters
// the public API returned at Close, spans around public calls, and the
// layer replay on the workload's own transactions.
func perLayerMetrics(ms *measured, res *runResult) error {
	sp, sys, c, closed, open := ms.sp, ms.sys, ms.c, ms.closed, ms.open
	m := newMetricSet(perLayer)
	commits := float64(c.totals.Committed)

	// driver.*
	tput := median(closed.throughputs())
	openN, overLimit, maxLag := open.totals()
	openLen := float64(open.winLen) * float64(len(open.win)) / 1e9
	openCommits := open.lat.total()
	m.set("driver.open_p99_us", open.lat.medianOfWindows(0.99)/1e3)
	m.set("driver.closed_p50_us", closed.lat.medianOfWindows(0.5)/1e3)
	m.set("driver.closed_p99_us", closed.lat.medianOfWindows(0.99)/1e3)
	m.set("driver.offered_tps", float64(ms.arrivals)/openLen)
	m.set("driver.achieved_tps", float64(openCommits)/max(openLen, float64(open.elapsed)/1e9))
	m.set("driver.max_lag_us", float64(maxLag)/1e3)
	m.set("driver.late_frac", ms.lateFrac)
	m.set("driver.over_limit_frac", ratio(float64(overLimit), float64(openN)))
	m.set("driver.window_spread", spread(closed.throughputs()))
	m.set("driver.open_cpu_us_per_txn", ratio(ms.openCPU.Seconds()*1e6, float64(openCommits)))
	m.set("driver.trace_overhead_frac", 1-ratio(tput, median(ms.base.throughputs())))
	if a, off := m.get("driver.achieved_tps"), m.get("driver.offered_tps"); a < 0.99*off {
		res.Notes = append(res.Notes, fmt.Sprintf("open phase: achieved %.0f txn/s is more than 1%% below the offered %.0f", a, off))
	}

	// workload.*, txn.*, and the other replayed layers
	in := generateReplayInput(sys.src, ms.seed)
	planNs, parts := replayPlan(in, sys.db)
	m.set("workload.next_ns", median(append(closed.nextNs, open.nextNs...)))
	m.set("workload.ops_per_txn", float64(in.nOps)/replayTxns)
	m.set("txn.plan_ns", planNs)
	m.set("txn.partitions_per_txn", parts)

	// engine.*
	execPct, lockPct, waitPct, logPct := c.totals.Breakdown()
	sortedSubmit := slices.Sorted(slices.Values(open.submitNs))
	m.set("engine.submit_ns", quantile(sortedSubmit, 0.5))
	m.set("engine.submit_p99_ns", quantile(sortedSubmit, 0.99))
	m.set("engine.commit_us", median(closed.commitNs)/1e3)
	m.set("engine.exec_frac", execPct/100)
	m.set("engine.lock_frac", lockPct/100)
	m.set("engine.wait_frac", waitPct/100)
	m.set("engine.log_frac", logPct/100)
	m.set("engine.aborts_per_txn", ratio(float64(c.totals.Aborted), commits))
	m.set("engine.allocs_per_txn", ratio(float64(ms.mallocs), float64(closed.lat.total())))
	m.set("engine.snap_txn_frac", ratio(float64(c.totals.SnapTxns), commits))
	m.set("engine.snap_hops_per_record", ratio(float64(c.totals.SnapHops), float64(c.totals.SnapRecords)))
	m.set("engine.snap_stale_lsn", c.totals.SnapStaleness())
	m.set("engine.ckpt_count", float64(c.ckpt.Checkpoints))
	m.set("engine.ckpt_bytes_per_ckpt", ratio(float64(c.ckpt.Bytes), float64(c.ckpt.Checkpoints)))
	m.set("engine.ckpt_chunk_retries", float64(c.ckpt.ChunkRetries))
	m.set("engine.ckpt_truncated_segments", float64(c.ckpt.TruncatedSegments))
	minTput := tput
	for _, v := range closed.throughputs() {
		minTput = min(minTput, v)
	}
	m.set("engine.ckpt_dip_frac", 1-ratio(minTput, tput))

	// orthrus.*
	msgs := c.msgs
	var maxHandled, sumHandled float64
	highWater := 0
	for _, cc := range msgs.PerCC {
		h := float64(cc.Handled())
		maxHandled, sumHandled = max(maxHandled, h), sumHandled+h
		highWater = max(highWater, cc.QueueHighWater)
	}
	batch := 0.0
	for _, b := range msgs.ExecBatch {
		batch += float64(b) / float64(len(msgs.ExecBatch))
	}
	m.set("orthrus.msgs_per_txn", ratio(float64(msgs.TotalMessages()), commits))
	m.set("orthrus.acq_msgs_per_txn", ratio(float64(msgs.AcquisitionMessages()), commits))
	m.set("orthrus.forwards_per_txn", ratio(float64(msgs.Forwards), commits))
	m.set("orthrus.msgs_per_enqueue", msgs.MessagesPerEnqueue())
	m.set("orthrus.cc_imbalance", ratio(maxHandled, sumHandled/float64(max(len(msgs.PerCC), 1))))
	m.set("orthrus.queue_high_water", float64(highWater))
	m.set("orthrus.exec_batch", batch)

	// spsc.*, storage.*
	perEnqueue := int(msgs.MessagesPerEnqueue() + 0.5)
	m.set("spsc.hop_ns_per_msg", replayHop(perEnqueue))
	m.set("spsc.hop_ns_unbatched", replayHop(1))
	m.set("storage.get_ns_per_op", replayGet(in, sys.db))
	installNs, readNs := replayVersions(in, sys.db, sys.tbl)
	m.set("storage.install_ns_per_write", installNs)
	m.set("storage.read_version_ns", readNs)
	m.set("storage.table_mb", float64(numRecords*recordSize)/1e6)

	// wal.*
	if sp.durable {
		m.set("wal.append_ns_per_txn", replayAppend(in, sys.db))
		m.set("wal.segments_live", float64(len(sys.dev.Segments())))
	} else {
		m.set("wal.append_ns_per_txn", 0)
		m.set("wal.segments_live", 0)
	}
	m.set("wal.records_per_flush", c.wal.RecordsPerFlush())
	m.set("wal.flushes_per_s", ratio(float64(c.wal.Flushes), c.elapsed.Seconds()))
	m.set("wal.max_flush_records", float64(c.wal.MaxFlushRecords))
	m.set("wal.bytes_per_record", ratio(float64(c.wal.Bytes), float64(c.wal.Records)))
	m.set("wal.durable_lag_lsn", median(ms.lagSamples))
	m.set("wal.recover_ms", ms.rec.ms)
	m.set("wal.replay_krec_per_s", ratio(float64(ms.rec.applied), ms.rec.ms))

	// transport.*
	net := c.execNet
	frames := float64(net.FramesSent + net.FramesReceived)
	perFrame := ratio(float64(net.MessagesSent+net.MessagesReceived), frames)
	m.set("transport.frames_per_txn", ratio(frames, commits))
	m.set("transport.msgs_per_frame", perFrame)
	m.set("transport.bytes_per_txn", ratio(float64(net.BytesSent+net.BytesReceived), commits))
	if sp.tcp {
		rtt, err := replayRTT(in)
		if err != nil {
			return fmt.Errorf("transport round-trip replay: %w", err)
		}
		m.set("transport.codec_ns_per_msg", replayCodec(in, int(perFrame+0.5)))
		m.set("transport.rtt_us", rtt)
	} else {
		m.set("transport.codec_ns_per_msg", 0)
		m.set("transport.rtt_us", 0)
	}

	// budget.*: what the replayed layers explain of one commit at the
	// open-phase rate. The rest — CC lock table, grant, cross-thread
	// wake-up, queueing — needs spans inside the engine to split.
	layerSum := (m.get("txn.plan_ns") +
		m.get("orthrus.msgs_per_txn")*m.get("spsc.hop_ns_per_msg") +
		m.get("workload.ops_per_txn")*m.get("storage.get_ns_per_op") +
		m.get("wal.append_ns_per_txn") +
		m.get("transport.frames_per_txn")*perFrame*m.get("transport.codec_ns_per_msg")) / 1e3
	commitUs := median(open.commitNs) / 1e3
	m.set("budget.layer_sum_us", layerSum)
	m.set("budget.commit_us", commitUs)
	m.set("budget.unexplained_frac", 1-ratio(layerSum, commitUs))

	if err := ms.spans.write(filepath.Join(ms.outDir, "trace_"+sp.name+".jsonl")); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	if ms.spans.dropped > 0 {
		res.Notes = append(res.Notes, fmt.Sprintf("span buffer full: %d sampled spans dropped", ms.spans.dropped))
	}
	res.Metrics = m.finish()
	return nil
}

// sampleDurableLag samples the durable frontier's lag behind the log tail
// once per window by the clock — the driver itself only gets to look
// right after an acknowledgment, when the lag is at its smallest. The
// returned function stops the sampler and hands over the samples.
func sampleDurableLag(log *wal.Log, every time.Duration) (stop func() []float64) {
	var samples []float64
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-quit:
				return
			case <-tick.C:
				samples = append(samples, float64(log.LastLSN()-log.DurableLSN()))
			}
		}
	}()
	return func() []float64 {
		close(quit)
		<-done
		return samples
	}
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

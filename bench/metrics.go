package main

// metricDef names one reported metric. The end-to-end list and its bounds
// are mirrored in ../BENCHMARK.json (bench_test.go keeps the two equal).
type metricDef struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
	// Bound is the relative worsening that counts as a regression and
	// Floor the absolute difference below which one never does; both are
	// for end-to-end metrics only and used by -compare.
	Bound float64
	Floor float64
}

// endToEnd is what a user of the engine sees; every one is reported on
// every workload, from the untraced pass. Failures are not a metric: they
// are the run's failed/attempted counts, and any at all fails the run.
// The bounds are about three times the run-to-run spread measured on the
// 2-core reference box (README.md, "Reference run and repeatability").
var endToEnd = []metricDef{
	{Name: "throughput_tps", Unit: "txn/s", Better: "higher", Bound: 0.20},
	{Name: "lat_p50_us", Unit: "us", Better: "lower", Bound: 0.25, Floor: 1},
	{Name: "live_heap_mb", Unit: "MB", Better: "lower", Bound: 0.05, Floor: 2},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Floor: 0.1},
}

// perLayer is reported from the traced pass; README.md maps each group to
// the end-to-end metric and workload it should move.
var perLayer = []metricDef{
	// The benchmark's own honesty checks.
	{Name: "driver.open_p99_us", Unit: "us", Better: "lower"},
	{Name: "driver.closed_p50_us", Unit: "us", Better: "lower"},
	{Name: "driver.closed_p99_us", Unit: "us", Better: "lower"},
	{Name: "driver.offered_tps", Unit: "txn/s", Better: "higher"},
	{Name: "driver.achieved_tps", Unit: "txn/s", Better: "higher"},
	{Name: "driver.max_lag_us", Unit: "us", Better: "lower"},
	{Name: "driver.late_frac", Unit: "ratio", Better: "lower"},
	{Name: "driver.over_limit_frac", Unit: "ratio", Better: "lower"},
	{Name: "driver.window_spread", Unit: "ratio", Better: "lower"},
	{Name: "driver.open_cpu_us_per_txn", Unit: "us", Better: "lower"},
	{Name: "driver.trace_overhead_frac", Unit: "ratio", Better: "lower"},

	{Name: "workload.next_ns", Unit: "ns", Better: "lower"},
	{Name: "workload.ops_per_txn", Unit: "count", Better: "lower"},
	{Name: "txn.plan_ns", Unit: "ns", Better: "lower"},
	{Name: "txn.partitions_per_txn", Unit: "count", Better: "lower"},

	{Name: "engine.submit_ns", Unit: "ns", Better: "lower"},
	{Name: "engine.submit_p99_ns", Unit: "ns", Better: "lower"},
	{Name: "engine.commit_us", Unit: "us", Better: "lower"},
	{Name: "engine.exec_frac", Unit: "ratio", Better: "higher"},
	{Name: "engine.lock_frac", Unit: "ratio", Better: "lower"},
	{Name: "engine.wait_frac", Unit: "ratio", Better: "lower"},
	{Name: "engine.log_frac", Unit: "ratio", Better: "lower"},
	{Name: "engine.aborts_per_txn", Unit: "count", Better: "lower"},
	{Name: "engine.allocs_per_txn", Unit: "count", Better: "lower"},
	{Name: "engine.snap_txn_frac", Unit: "ratio", Better: "higher"},
	{Name: "engine.snap_hops_per_record", Unit: "count", Better: "lower"},
	{Name: "engine.snap_stale_lsn", Unit: "count", Better: "lower"},
	{Name: "engine.ckpt_count", Unit: "count", Better: "higher"},
	{Name: "engine.ckpt_bytes_per_ckpt", Unit: "bytes", Better: "lower"},
	{Name: "engine.ckpt_chunk_retries", Unit: "count", Better: "lower"},
	{Name: "engine.ckpt_truncated_segments", Unit: "count", Better: "higher"},
	{Name: "engine.ckpt_dip_frac", Unit: "ratio", Better: "lower"},

	{Name: "orthrus.msgs_per_txn", Unit: "count", Better: "lower"},
	{Name: "orthrus.acq_msgs_per_txn", Unit: "count", Better: "lower"},
	{Name: "orthrus.forwards_per_txn", Unit: "count", Better: "lower"},
	{Name: "orthrus.msgs_per_enqueue", Unit: "count", Better: "higher"},
	{Name: "orthrus.cc_imbalance", Unit: "ratio", Better: "lower"},
	{Name: "orthrus.queue_high_water", Unit: "count", Better: "lower"},
	{Name: "orthrus.exec_batch", Unit: "count", Better: "higher"},

	{Name: "spsc.hop_ns_per_msg", Unit: "ns", Better: "lower"},
	{Name: "spsc.hop_ns_unbatched", Unit: "ns", Better: "lower"},

	{Name: "storage.get_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "storage.install_ns_per_write", Unit: "ns", Better: "lower"},
	{Name: "storage.read_version_ns", Unit: "ns", Better: "lower"},
	{Name: "storage.table_mb", Unit: "MB", Better: "lower"},

	{Name: "wal.append_ns_per_txn", Unit: "ns", Better: "lower"},
	{Name: "wal.records_per_flush", Unit: "count", Better: "higher"},
	{Name: "wal.flushes_per_s", Unit: "1/s", Better: "lower"},
	{Name: "wal.max_flush_records", Unit: "count", Better: "lower"},
	{Name: "wal.bytes_per_record", Unit: "bytes", Better: "lower"},
	{Name: "wal.durable_lag_lsn", Unit: "count", Better: "lower"},
	{Name: "wal.segments_live", Unit: "count", Better: "lower"},
	{Name: "wal.recover_ms", Unit: "ms", Better: "lower"},
	{Name: "wal.replay_krec_per_s", Unit: "krec/s", Better: "higher"},

	{Name: "transport.frames_per_txn", Unit: "count", Better: "lower"},
	{Name: "transport.msgs_per_frame", Unit: "count", Better: "higher"},
	{Name: "transport.bytes_per_txn", Unit: "bytes", Better: "lower"},
	{Name: "transport.codec_ns_per_msg", Unit: "ns", Better: "lower"},
	{Name: "transport.rtt_us", Unit: "us", Better: "lower"},

	{Name: "budget.layer_sum_us", Unit: "us", Better: "lower"},
	{Name: "budget.commit_us", Unit: "us", Better: "lower"},
	{Name: "budget.unexplained_frac", Unit: "ratio", Better: "lower"},
}

// value is one measured metric as the result line carries it.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects a pass's values against one of the lists above;
// finish panics if the pass missed a metric or invented one, so the
// output always carries exactly the declared names.
type metricSet struct {
	defs []metricDef
	vals map[string]value
}

func newMetricSet(defs []metricDef) *metricSet {
	return &metricSet{defs: defs, vals: make(map[string]value, len(defs))}
}

func (m *metricSet) set(name string, v float64) {
	for _, d := range m.defs {
		if d.Name == name {
			m.vals[name] = value{Value: v, Unit: d.Unit}
			return
		}
	}
	panic("bench: metric " + name + " is not declared")
}

func (m *metricSet) get(name string) float64 { return m.vals[name].Value }

func (m *metricSet) finish() map[string]value {
	for _, d := range m.defs {
		if _, ok := m.vals[d.Name]; !ok {
			panic("bench: metric " + d.Name + " was not measured")
		}
	}
	return m.vals
}

// ratio is a/b, and 0 when there is nothing to divide by.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

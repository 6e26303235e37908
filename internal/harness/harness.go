// Package harness regenerates every table and figure in the paper's
// evaluation (§4 and Appendix A), plus extensions such as the open-loop
// latency experiment. Each figure experiment prints the same series the
// paper plots — throughput (or a time breakdown) per system along the
// figure's x-axis — so paper-vs-measured comparisons drop out directly.
//
// Scale note: axis values named "CPU cores" in the paper are logical
// worker-thread counts here (see README.md "Scale and fidelity"), and
// the default table size is scaled down from the paper's 10M×1KB
// records; both are configurable.
package harness

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/orthrus"
	"repro/internal/storage"
	"repro/internal/workload"
)

// Config are the knobs shared by all experiments.
type Config struct {
	// Duration is the measured run length per data point.
	Duration time.Duration
	// Records and RecordSize shape the YCSB table (paper: 10M × 1000 B).
	Records    uint64
	RecordSize int
	// MaxThreads caps the paper's thread-count axes (paper machine: 80).
	MaxThreads int
	// TPCCItems / TPCCCustomers scale TPC-C (see internal/tpcc docs).
	TPCCItems     int
	TPCCCustomers int
	// ScanPct / ScanMaxLen pin the scan experiment to a single scan
	// fraction (percent) / scan-length bound instead of its default
	// sweep. Zero means sweep; out-of-range values panic in Defaults.
	ScanPct    int
	ScanMaxLen int
	// ReadOnlyPct pins the htap experiment's read-only (analytics)
	// transaction fraction instead of its default. Zero means default;
	// out-of-range values panic in Defaults.
	ReadOnlyPct int
	// Out receives the printed tables.
	Out io.Writer

	// json, when non-nil, receives one machine-readable object per
	// printed series row. Set by Run; experiments never touch it
	// directly (table rows are mirrored automatically, custom-format
	// experiments call JSONRow).
	json *jsonRecorder
}

// JSONRow emits one machine-readable row for experiments whose output
// is not a plain series table. No-op unless JSON recording is on.
func (c Config) JSONRow(row map[string]interface{}) { c.json.emit(row) }

// Validate panics on out-of-range knobs. The scale knobs (Duration,
// Records, RecordSize, MaxThreads, TPCCItems, TPCCCustomers) accept any
// value — zero means "use the default", which Defaults fills before
// validating.
func (c Config) Validate() {
	_ = c.Duration   // <=0 means default
	_ = c.Records    // 0 means default
	_ = c.RecordSize // 0 means default
	_ = c.MaxThreads // 0 means default
	_ = c.TPCCItems  // 0 means default (tpcc.Load re-checks its own scale)
	_ = c.TPCCCustomers
	if c.ScanPct < 0 || c.ScanPct > 100 {
		panic(fmt.Sprintf("harness: ScanPct %d out of range [0, 100] (0 means sweep)", c.ScanPct))
	}
	if c.ScanMaxLen < 0 || uint64(c.ScanMaxLen) > c.Records {
		panic(fmt.Sprintf("harness: ScanMaxLen %d out of range [0, Records=%d] (0 means sweep)", c.ScanMaxLen, c.Records))
	}
	if c.ReadOnlyPct < 0 || c.ReadOnlyPct > 100 {
		panic(fmt.Sprintf("harness: ReadOnlyPct %d out of range [0, 100] (0 means default)", c.ReadOnlyPct))
	}
	if c.Out == nil {
		panic("harness: Config.Out must be set")
	}
}

// Defaults fills zero fields with laptop-scale values and validates the
// result.
func (c Config) Defaults() Config {
	if c.Duration <= 0 {
		c.Duration = 300 * time.Millisecond
	}
	if c.Records == 0 {
		c.Records = 100_000
	}
	if c.RecordSize == 0 {
		c.RecordSize = 100
	}
	if c.MaxThreads == 0 {
		c.MaxThreads = 80
	}
	if c.TPCCItems == 0 {
		c.TPCCItems = 1000
	}
	if c.TPCCCustomers == 0 {
		c.TPCCCustomers = 100
	}
	c.Validate()
	return c
}

// Experiment regenerates one paper figure.
type Experiment struct {
	ID          string
	Figure      string
	Description string
	Run         func(c Config)
}

// Registry returns all experiments in figure order.
func Registry() []Experiment {
	return []Experiment{
		{"fig1", "Figure 1", "2PL read-only scalability under high contention", fig1},
		{"fig4a", "Figure 4(a)", "deadlock-handler throughput vs hot-set size, 10 threads", fig4a},
		{"fig4b", "Figure 4(b)", "deadlock-handler throughput vs hot-set size, 80 threads", fig4b},
		{"fig5", "Figure 5", "ORTHRUS execution-thread scalability per CC allocation", fig5},
		{"fig6", "Figure 6", "throughput vs partitions accessed per transaction", fig6},
		{"fig7", "Figure 7", "throughput vs percentage of multi-partition transactions", fig7},
		{"fig8", "Figure 8", "TPC-C throughput vs warehouse count", fig8},
		{"fig9", "Figure 9", "TPC-C scalability at 16 warehouses", fig9},
		{"fig10", "Figure 10", "execution-thread CPU time breakdown on TPC-C", fig10},
		{"fig11a", "Figure 11(a)", "YCSB read-only scalability, low contention", fig11a},
		{"fig11b", "Figure 11(b)", "YCSB read-only scalability, high contention", fig11b},
		{"fig12a", "Figure 12(a)", "YCSB 10RMW scalability, low contention", fig12a},
		{"fig12b", "Figure 12(b)", "YCSB 10RMW scalability, high contention", fig12b},
		{"openloop", "Open loop", "commit-latency percentiles vs fixed Poisson arrival rate", openloop},
		{"batching", "Extension", "message-plane ring operations and throughput vs BatchSize", batching},
		{"durability", "Extension", "throughput/latency vs WAL sync policy: self-clocked group commit vs timed fill windows", durability},
		{"scan", "Extension", "phantom-safe range-scan throughput/p99 vs scan fraction and length", scanExp},
		{"htap", "Extension", "MVCC snapshot scans vs locking scans under a contended write mix", htapExp},
		{"recovery", "Extension", "recovery time vs checkpoint interval; parallel vs serial replay", recoveryExp},
		{"distributed", "Extension", "two-node CC/exec split over loopback TCP vs the in-process message plane", distributed},
	}
}

// Get returns the experiment with the given id, or false.
func Get(id string) (Experiment, bool) {
	for _, e := range Registry() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// Run executes e under c. When jsonDir is non-empty, the experiment's
// series is additionally written as JSON objects (one per line) to
// jsonDir/BENCH_<id>.json, so the perf trajectory of a checkout can be
// tracked mechanically across changes — the printed tables stay the
// human-readable channel.
func Run(e Experiment, c Config, jsonDir string) error {
	if jsonDir == "" {
		e.Run(c)
		return nil
	}
	if err := os.MkdirAll(jsonDir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(jsonDir, "BENCH_"+e.ID+".json"))
	if err != nil {
		return err
	}
	rec := &jsonRecorder{id: e.ID, enc: json.NewEncoder(f)}
	c.json = rec
	e.Run(c)
	if rec.err != nil {
		f.Close()
		return rec.err
	}
	return f.Close()
}

// jsonRecorder appends one JSON object per series row. A nil recorder is
// a valid no-op sink, so emit sites need no guards.
//
// Every row says how it was run: "gomaxprocs", and "workers" — ORTHRUS
// engine name → goroutines that served its logical threads
// (orthrus.MessageStats.Workers) for the sessions closed since the
// previous row. A thread-ratio sweep regenerated on a box with fewer
// procs than threads thereby states that, and how far, it was folded.
type jsonRecorder struct {
	id      string
	enc     *json.Encoder
	err     error // first encode failure, surfaced by Run
	workers map[string]int
}

func (r *jsonRecorder) emit(row map[string]interface{}) {
	if r == nil {
		return
	}
	row["experiment"] = r.id
	row["gomaxprocs"] = runtime.GOMAXPROCS(0)
	if len(r.workers) > 0 {
		row["workers"] = r.workers
		r.workers = nil
	}
	if err := r.enc.Encode(row); err != nil && r.err == nil {
		r.err = err
	}
}

// --- shared helpers -------------------------------------------------------

// newYCSBDB builds a fresh single-table database.
func newYCSBDB(c Config) (*storage.DB, int) {
	db := storage.NewDB()
	tbl := db.Create(storage.Layout{Name: "ycsb", NumRecords: c.Records, RecordSize: c.RecordSize})
	return db, tbl
}

// threadAxis filters the paper's core-count axis by MaxThreads, always
// keeping at least the smallest value.
func threadAxis(c Config, paper []int) []int {
	out := make([]int, 0, len(paper))
	for _, v := range paper {
		if v <= c.MaxThreads {
			out = append(out, v)
		}
	}
	if len(out) == 0 {
		out = append(out, paper[0])
	}
	return out
}

// point runs one engine on one workload for the configured duration and
// returns the result.
func point(c Config, eng engine.Engine, src workload.Source) metrics.Result {
	res := eng.Run(src, c.Duration)
	c.noteWorkers(eng)
	return res
}

// noteWorkers records, for the JSON row eng's just-closed session will be
// reported in, how many goroutines served an ORTHRUS engine's logical
// threads. No-op for the other engines and when JSON recording is off.
func (c Config) noteWorkers(eng engine.Engine) {
	if o, ok := eng.(*orthrus.Engine); ok && c.json != nil {
		if c.json.workers == nil {
			c.json.workers = make(map[string]int)
		}
		c.json.workers[o.Name()] = o.Messages().Workers
	}
}

// table streams a formatted series table, mirroring every row to the
// JSON recorder when one is active.
type table struct {
	w      io.Writer
	cols   []string
	xlabel string
	rec    *jsonRecorder
}

func newTable(c Config, xlabel string, systems []string) *table {
	t := &table{w: c.Out, cols: systems, xlabel: xlabel, rec: c.json}
	fmt.Fprintf(t.w, "%-14s", xlabel)
	for _, s := range systems {
		fmt.Fprintf(t.w, " %16s", s)
	}
	fmt.Fprintln(t.w)
	return t
}

func (t *table) row(x interface{}, tps []float64) {
	fmt.Fprintf(t.w, "%-14v", x)
	for _, v := range tps {
		fmt.Fprintf(t.w, " %16.0f", v)
	}
	fmt.Fprintln(t.w)
	if t.rec != nil {
		series := make(map[string]interface{}, len(t.cols))
		for i, col := range t.cols {
			if i < len(tps) {
				series[col] = tps[i]
			}
		}
		t.rec.emit(map[string]interface{}{"x_label": t.xlabel, "x": x, "series": series})
	}
}

func header(c Config, e string) {
	fmt.Fprintf(c.Out, "\n# %s\n", e)
}

// ccSplit apportions t total threads between CC and execution the way the
// paper configures ORTHRUS (§4.4.3: 16 CC + 64 exec at 80 threads, i.e.
// one fifth CC), with a floor of one thread per role.
func ccSplit(t int) (cc, exec int) {
	cc = t / 5
	if cc < 1 {
		cc = 1
	}
	exec = t - cc
	if exec < 1 {
		exec = 1
	}
	return cc, exec
}

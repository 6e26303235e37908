package harness

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
)

func tinyConfig(buf *bytes.Buffer) Config {
	return Config{
		Duration:      15 * time.Millisecond,
		Records:       4096,
		RecordSize:    64,
		MaxThreads:    4,
		TPCCItems:     100,
		TPCCCustomers: 20,
		Out:           buf,
	}.Defaults()
}

func TestRegistryCoversEveryFigure(t *testing.T) {
	want := []string{"fig1", "fig4a", "fig4b", "fig5", "fig6", "fig7",
		"fig8", "fig9", "fig10", "fig11a", "fig11b", "fig12a", "fig12b",
		"openloop", "batching", "durability", "scan", "htap",
		"recovery", "distributed"}
	reg := Registry()
	if len(reg) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(reg), len(want))
	}
	for i, id := range want {
		if reg[i].ID != id {
			t.Errorf("registry[%d] = %s, want %s", i, reg[i].ID, id)
		}
		if reg[i].Run == nil || reg[i].Figure == "" || reg[i].Description == "" {
			t.Errorf("experiment %s incomplete", id)
		}
	}
	if _, ok := Get("fig8"); !ok {
		t.Fatal("Get(fig8) failed")
	}
	if _, ok := Get("nope"); ok {
		t.Fatal("Get(nope) succeeded")
	}
}

func TestDefaults(t *testing.T) {
	var buf bytes.Buffer
	c := Config{Out: &buf}.Defaults()
	if c.Duration <= 0 || c.Records == 0 || c.RecordSize == 0 || c.MaxThreads == 0 {
		t.Fatalf("defaults missing: %+v", c)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Defaults accepted nil Out")
		}
	}()
	Config{}.Defaults()
}

func TestDefaultsRejectsBadReadOnlyPct(t *testing.T) {
	var buf bytes.Buffer
	for _, pct := range []int{-1, 101} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Defaults accepted ReadOnlyPct=%d", pct)
				}
			}()
			Config{Out: &buf, ReadOnlyPct: pct}.Defaults()
		}()
	}
	// In-range values pass through untouched.
	if c := (Config{Out: &buf, ReadOnlyPct: 35}).Defaults(); c.ReadOnlyPct != 35 {
		t.Fatalf("ReadOnlyPct = %d", c.ReadOnlyPct)
	}
}

func TestThreadAxisCapping(t *testing.T) {
	var buf bytes.Buffer
	c := tinyConfig(&buf)
	got := threadAxis(c, []int{10, 20, 40, 60, 80})
	if len(got) != 1 || got[0] != 10 {
		t.Fatalf("threadAxis = %v (MaxThreads=4 keeps smallest only)", got)
	}
	c.MaxThreads = 40
	got = threadAxis(c, []int{10, 20, 40, 60, 80})
	if len(got) != 3 || got[2] != 40 {
		t.Fatalf("threadAxis = %v", got)
	}
}

func TestCCSplit(t *testing.T) {
	cases := []struct{ in, cc, exec int }{
		{80, 16, 64},
		{10, 2, 8},
		{4, 1, 3},
		{1, 1, 1},
	}
	for _, c := range cases {
		cc, exec := ccSplit(c.in)
		if cc != c.cc || exec != c.exec {
			t.Errorf("ccSplit(%d) = (%d,%d), want (%d,%d)", c.in, cc, exec, c.cc, c.exec)
		}
	}
}

// jsonRow is one BENCH_<id>.json line of a series-table experiment.
type jsonRow struct {
	Experiment string             `json:"experiment"`
	XLabel     string             `json:"x_label"`
	Series     map[string]float64 `json:"series"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	Workers    map[string]int     `json:"workers"`
}

// runJSON runs experiment id at tiny scale with JSON recording on and
// returns the printed output and the parsed BENCH_<id>.json rows.
func runJSON(t *testing.T, id string) (string, []jsonRow) {
	t.Helper()
	dir := t.TempDir()
	var buf bytes.Buffer
	e, ok := Get(id)
	if !ok {
		t.Fatalf("%s missing", id)
	}
	if err := Run(e, tinyConfig(&buf), dir); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "BENCH_"+id+".json"))
	if err != nil {
		t.Fatal(err)
	}
	var rows []jsonRow
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		var row jsonRow
		if err := json.Unmarshal([]byte(line), &row); err != nil {
			t.Fatalf("bad JSON row %q: %v", line, err)
		}
		rows = append(rows, row)
	}
	return buf.String(), rows
}

// Run with a JSON directory must leave a parseable BENCH_<id>.json whose
// rows mirror the printed series.
func TestRunWritesJSONRows(t *testing.T) {
	_, rows := runJSON(t, "fig1")
	if len(rows) == 0 {
		t.Fatal("no JSON rows")
	}
	for _, row := range rows {
		if row.Experiment != "fig1" || row.XLabel != "threads" || len(row.Series) == 0 {
			t.Fatalf("row content wrong: %+v", row)
		}
	}
	// JSON off: plain Run leaves no recorder and writes nothing.
	var buf bytes.Buffer
	e, _ := Get("fig1")
	if err := Run(e, tinyConfig(&buf), ""); err != nil {
		t.Fatal(err)
	}
}

// Smoke: every registered experiment runs end to end at tiny scale and
// produces a non-empty, numeric table.
func TestEveryExperimentRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every engine; skipped in -short")
	}
	for _, e := range Registry() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			var buf bytes.Buffer
			c := tinyConfig(&buf)
			e.Run(c)
			out := buf.String()
			if !strings.Contains(out, "#") {
				t.Fatalf("no header in output:\n%s", out)
			}
			lines := strings.Split(strings.TrimSpace(out), "\n")
			if len(lines) < 3 {
				t.Fatalf("too little output:\n%s", out)
			}
		})
	}
}

// Figures 6 and 7 run each distinct configuration once: three series,
// one per engine, and the header says why the paper's split variants
// are absent.
func TestMultiPartitionFiguresEmitThreeSeries(t *testing.T) {
	if testing.Short() {
		t.Skip("runs three engines per point; skipped in -short")
	}
	for _, id := range []string{"fig6", "fig7"} {
		out, rows := runJSON(t, id)
		if !strings.Contains(out, "split variants are not distinguishable") {
			t.Errorf("%s header does not explain the missing split series:\n%s", id, out)
		}
		for _, row := range rows {
			if len(row.Series) != 3 {
				t.Fatalf("%s row has %d series, want 3: %+v", id, len(row.Series), row)
			}
			for _, name := range []string{"partstore", "orthrus", "dlfree"} {
				if _, ok := row.Series[name]; !ok {
					t.Fatalf("%s row lacks series %q: %+v", id, name, row)
				}
			}
		}
	}
}

// A result says how it was run: every JSON row carries GOMAXPROCS, and a
// row that ran ORTHRUS engines names each with the number of goroutines
// that served its logical threads — min(threads, GOMAXPROCS) — so a
// Figure 5 ratio sweep regenerated on a small box states its folding.
func TestJSONRowsStateProcsAndWorkers(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	_, rows := runJSON(t, "fig5")
	if len(rows) == 0 {
		t.Fatal("no JSON rows")
	}
	for _, row := range rows {
		if row.GOMAXPROCS != procs {
			t.Fatalf("row says gomaxprocs=%d, running under %d: %+v", row.GOMAXPROCS, procs, row)
		}
		if len(row.Workers) != len(row.Series) {
			t.Fatalf("row has %d series but names %d engines' workers: %+v", len(row.Series), len(row.Workers), row)
		}
		for name, workers := range row.Workers {
			var cc, ex int
			if _, err := fmt.Sscanf(name, "orthrus(%dcc/%dex)", &cc, &ex); err != nil {
				t.Fatalf("workers keyed by %q, want an ORTHRUS engine name: %v", name, err)
			}
			if want := min(cc+ex, procs); workers != want {
				t.Fatalf("%s: workers=%d, want min(%d threads, %d procs) = %d", name, workers, cc+ex, procs, want)
			}
		}
	}
}

// The durability experiment's policy axis contrasts self-clocked group
// commit with timed fill windows; these labels are the x values of its
// JSON rows, so the trajectory files stay comparable across PRs.
func TestDurabilityPolicyAxisLabels(t *testing.T) {
	want := []string{"off", "group", "group(64,200µs)", "group(256,1ms)"}
	got := durabilityPolicies()
	if len(got) != len(want) {
		t.Fatalf("%d policies, want %d", len(got), len(want))
	}
	for i, p := range got {
		if p.String() != want[i] {
			t.Errorf("policy %d prints %q, want %q", i, p, want[i])
		}
	}
}

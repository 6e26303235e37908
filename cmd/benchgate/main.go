// Command benchgate is the CI performance gate: it compares a `go test
// -bench` run against a checked-in baseline and exits nonzero on
// regression. The module has no external dependencies, so this is a
// purpose-built, deliberately small replacement for benchstat.
//
// Usage:
//
//	go test -run '^$' -bench <pattern> -benchmem ./... > current.txt
//	go run ./cmd/benchgate -baseline bench-baseline.txt current.txt
//
// Two checks run over the benchmarks present in both files:
//
//   - Throughput (ns/op). The geometric mean of the current/baseline
//     ratios must not exceed 1.10 — a >10% across-the-board slowdown
//     fails. Because CI hardware varies run to run, each ratio is also
//     compared against the run's median ratio: a single benchmark more
//     than 25% slower than the median drift fails even when the whole
//     run is uniformly slower or faster (machine-speed changes cancel
//     out of the median-normalized ratio; genuine single-path
//     regressions do not).
//   - Allocations (allocs/op). Compared absolutely, not by ratio: the
//     zero-allocation benchmarks must stay at zero, and any benchmark
//     that allocates more per op than its baseline fails regardless of
//     speed. (A ratio gate would wave through 0 → 3 allocs, the exact
//     regression this PR exists to prevent.)
//
// Benchmarks present in only one file are reported as notes but do not
// fail the gate (new benchmarks land before their baseline is
// regenerated), and the closing line counts only those compared.
//
// Regenerate the baseline on the CI runner class (see .github/workflows/
// ci.yml for the exact bench pattern):
//
//	go test -run '^$' -bench 'BenchmarkSubmitAllocs|BenchmarkAblationBatchSize' -benchmem -benchtime 200x . > bench-baseline.txt
//	go test -run '^$' -bench 'BenchmarkRingPingPong' -benchmem ./internal/spsc >> bench-baseline.txt
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// result is one parsed benchmark line.
type result struct {
	nsPerOp     float64
	allocsPerOp float64
	hasAllocs   bool
}

// benchRE matches "BenchmarkName[-procs] <iters> <value> ns/op ...".
var benchRE = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+(.*)$`)

// parse reads go test -bench output, keyed by benchmark name with the
// GOMAXPROCS suffix stripped.
func parse(r io.Reader) (map[string]result, error) {
	out := make(map[string]result)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		m := benchRE.FindStringSubmatch(strings.TrimSpace(sc.Text()))
		if m == nil {
			continue
		}
		name, fields := m[1], strings.Fields(m[2])
		var res result
		seen := false
		for i := 0; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "ns/op":
				res.nsPerOp, seen = v, true
			case "allocs/op":
				res.allocsPerOp, res.hasAllocs = v, true
			}
		}
		if seen {
			out[name] = res
		}
	}
	return out, sc.Err()
}

// gate compares current against baseline. It returns how many benchmarks
// it compared, a note for each benchmark present in only one file (never
// a failure), and failure messages.
func gate(baseline, current map[string]result, geomeanLimit, relativeLimit float64) (compared int, notes, failures []string) {
	var names []string
	for name := range baseline {
		if _, ok := current[name]; ok {
			names = append(names, name)
		} else {
			notes = append(notes, name+" is in the baseline but was not run (stale baseline row?)")
		}
	}
	for name := range current {
		if _, ok := baseline[name]; !ok {
			notes = append(notes, name+" has no baseline yet (regenerate bench-baseline.txt)")
		}
	}
	sort.Strings(names)
	sort.Strings(notes)
	if len(names) == 0 {
		return 0, notes, []string{"no benchmarks in common between baseline and current run"}
	}

	ratios := make(map[string]float64, len(names))
	var sorted []float64
	logSum := 0.0
	for _, name := range names {
		b, c := baseline[name], current[name]
		if b.nsPerOp <= 0 {
			continue
		}
		r := c.nsPerOp / b.nsPerOp
		ratios[name] = r
		sorted = append(sorted, r)
		logSum += math.Log(r)

		if b.hasAllocs && c.hasAllocs && c.allocsPerOp > b.allocsPerOp {
			failures = append(failures, fmt.Sprintf(
				"%s: %.0f allocs/op, baseline %.0f (allocation regression)",
				name, c.allocsPerOp, b.allocsPerOp))
		}
	}
	sort.Float64s(sorted)
	median := sorted[len(sorted)/2]
	geomean := math.Exp(logSum / float64(len(sorted)))

	if geomean > geomeanLimit {
		failures = append(failures, fmt.Sprintf(
			"geomean ns/op ratio %.3f exceeds %.2f (across-the-board slowdown)", geomean, geomeanLimit))
	}
	for _, name := range names {
		if r, ok := ratios[name]; ok && r/median > relativeLimit {
			failures = append(failures, fmt.Sprintf(
				"%s: ns/op ratio %.3f is %.0f%% above the run median %.3f (isolated regression)",
				name, r, (r/median-1)*100, median))
		}
	}
	return len(names), notes, failures
}

func main() {
	baselinePath := flag.String("baseline", "bench-baseline.txt", "checked-in baseline bench output")
	geomeanLimit := flag.Float64("geomean", 1.10, "maximum geometric-mean ns/op ratio")
	relativeLimit := flag.Float64("relative", 1.25, "maximum median-normalized ns/op ratio per benchmark")
	flag.Parse()

	bf, err := os.Open(*baselinePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
		os.Exit(2)
	}
	baseline, err := parse(bf)
	bf.Close()
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: parsing baseline: %v\n", err)
		os.Exit(2)
	}

	var cur io.Reader = os.Stdin
	if flag.NArg() > 0 {
		cf, err := os.Open(flag.Arg(0))
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
			os.Exit(2)
		}
		defer cf.Close()
		cur = cf
	}
	current, err := parse(cur)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: parsing current run: %v\n", err)
		os.Exit(2)
	}

	compared, notes, failures := gate(baseline, current, *geomeanLimit, *relativeLimit)
	for _, n := range notes {
		fmt.Printf("benchgate: note: %s\n", n)
	}
	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintf(os.Stderr, "benchgate: FAIL: %s\n", f)
		}
		os.Exit(1)
	}
	fmt.Printf("benchgate: ok (%d benchmarks compared)\n", compared)
}

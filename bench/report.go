package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
)

// printRun prints every metric of a pass by name with its unit, then the
// verification checks.
func printRun(w io.Writer, r *runResult) {
	pass, defs := "untraced", endToEnd
	if r.Trace == 1 {
		pass, defs = "traced", perLayer
	}
	fmt.Fprintf(w, "\n== %s  %s pass  seed=%d  %gs measured  attempted=%d failed=%d\n", r.Workload, pass, r.Seed, r.Seconds, r.Attempted, r.Failed)
	invalid := map[string]bool{}
	for _, name := range r.Invalid {
		invalid[name] = true
	}
	for _, d := range defs {
		v := r.Metrics[d.Name]
		mark := ""
		if invalid[d.Name] {
			mark = "  INVALID"
		}
		fmt.Fprintf(w, "  %-34s %16.4f %s%s\n", d.Name, v.Value, v.Unit, mark)
	}
	for _, c := range r.Checks {
		verdict := "ok  "
		if !c.OK {
			verdict = "FAIL"
		}
		fmt.Fprintf(w, "  check %s %-20s %s\n", verdict, c.Name, c.Detail)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
}

// loadRuns reads a result file, or every BENCH_*.json of a directory.
func loadRuns(path string) ([]*runResult, error) {
	paths := []string{path}
	if st, err := os.Stat(path); err != nil {
		return nil, err
	} else if st.IsDir() {
		if paths, err = filepath.Glob(filepath.Join(path, "BENCH_*.json")); err != nil {
			return nil, err
		}
	}
	var runs []*runResult
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var doc document
		if err := json.Unmarshal(b, &doc); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		runs = append(runs, doc.Runs...)
	}
	if len(runs) == 0 {
		return nil, fmt.Errorf("%s: no runs", path)
	}
	return runs, nil
}

// compareFiles prints one row per workload × end-to-end metric: A's and
// B's medians over their runs, the ratio B/A with its base, and a verdict
// from the metric's bound — "worse" when B is worse than A by more than
// the bound (and by more than the absolute floor), "unresolved" when
// either side's own run-to-run spread is wider than the bound, else "ok".
// It reports whether any row is worse.
func compareFiles(w io.Writer, pathA, pathB string) (bool, error) {
	a, err := loadRuns(pathA)
	if err != nil {
		return false, err
	}
	b, err := loadRuns(pathB)
	if err != nil {
		return false, err
	}
	collect := func(runs []*runResult, workload, metric string) []float64 {
		var vs []float64
		for _, r := range runs {
			if v, ok := r.Metrics[metric]; ok && r.Workload == workload && r.Trace == 0 {
				vs = append(vs, v.Value)
			}
		}
		return vs
	}
	fmt.Fprintf(w, "%-12s %-15s %14s %14s %22s %7s %7s  %s\n", "workload", "metric", "A (median)", "B (median)", "B/A (base A)", "bound", "spread", "verdict")
	anyWorse := false
	for _, sp := range specs {
		for _, d := range endToEnd {
			va, vb := collect(a, sp.name, d.Name), collect(b, sp.name, d.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			noise := math.Max(spread(va), spread(vb))
			worsening := mb - ma // positive = B is worse
			if d.Better == "higher" {
				worsening = ma - mb
			}
			verdict := "ok"
			switch {
			case worsening > d.Bound*ma && worsening > d.Floor:
				verdict = "worse"
				anyWorse = true
			case noise > d.Bound:
				verdict = "unresolved"
			}
			fmt.Fprintf(w, "%-12s %-15s %14.4f %14.4f %9.4f (of %9.4f) %7.2f %7.3f  %s\n",
				sp.name, d.Name, ma, mb, ratio(mb, ma), ma, d.Bound, noise, verdict)
		}
	}
	return anyWorse, nil
}

package main

import (
	"strings"
	"testing"
)

const baselineText = `
goos: linux
BenchmarkRingPingPong/padded-4       	 5000000	       250.0 ns/op	       0 B/op	       0 allocs/op
BenchmarkRingPingPong/unpadded-4     	 3000000	       400.0 ns/op	       0 B/op	       0 allocs/op
BenchmarkSubmitAllocs/orthrus-4      	 1000000	      1000 ns/op	       0 B/op	       0 allocs/op
BenchmarkAblationBatchSize/bs=8-4    	  500000	      2000 ns/op	   12345 txns/sec
PASS
`

func parsed(t *testing.T, text string) map[string]result {
	t.Helper()
	m, err := parse(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestParse(t *testing.T) {
	m := parsed(t, baselineText)
	if len(m) != 4 {
		t.Fatalf("parsed %d benchmarks, want 4: %v", len(m), m)
	}
	r, ok := m["BenchmarkRingPingPong/padded"]
	if !ok {
		t.Fatal("GOMAXPROCS suffix not stripped")
	}
	if r.nsPerOp != 250 || !r.hasAllocs || r.allocsPerOp != 0 {
		t.Fatalf("bad parse: %+v", r)
	}
	if a := m["BenchmarkAblationBatchSize/bs=8"]; a.hasAllocs {
		t.Fatalf("custom-metric line misparsed as having allocs: %+v", a)
	}
}

func TestGatePasses(t *testing.T) {
	base := parsed(t, baselineText)
	// 5% uniformly slower: within both the geomean and relative limits.
	cur := parsed(t, strings.ReplaceAll(strings.ReplaceAll(strings.ReplaceAll(strings.ReplaceAll(baselineText,
		"250.0", "262.5"), "400.0", "420.0"), "1000 ns/op", "1050 ns/op"), "2000 ns/op", "2100 ns/op"))
	if _, _, fails := gate(base, cur, 1.10, 1.25); len(fails) != 0 {
		t.Fatalf("uniform 5%% drift should pass, got %v", fails)
	}
}

func TestGateGeomeanFails(t *testing.T) {
	base := parsed(t, baselineText)
	cur := parsed(t, strings.ReplaceAll(strings.ReplaceAll(strings.ReplaceAll(strings.ReplaceAll(baselineText,
		"250.0", "312.5"), "400.0", "500.0"), "1000 ns/op", "1250 ns/op"), "2000 ns/op", "2500 ns/op"))
	_, _, fails := gate(base, cur, 1.10, 1.25)
	if len(fails) != 1 || !strings.Contains(fails[0], "geomean") {
		t.Fatalf("uniform 25%% slowdown should fail the geomean check, got %v", fails)
	}
}

func TestGateIsolatedRegressionFails(t *testing.T) {
	base := parsed(t, baselineText)
	// Whole run 40% slower (new machine) — but one benchmark 2.8x slower.
	// Median normalization must catch the outlier and only the outlier.
	cur := parsed(t, strings.ReplaceAll(strings.ReplaceAll(strings.ReplaceAll(strings.ReplaceAll(baselineText,
		"250.0", "350.0"), "400.0", "560.0"), "1000 ns/op", "2800 ns/op"), "2000 ns/op", "2800 ns/op"))
	_, _, fails := gate(base, cur, 100, 1.25) // geomean disabled: isolate the relative check
	if len(fails) != 1 || !strings.Contains(fails[0], "BenchmarkSubmitAllocs/orthrus") {
		t.Fatalf("want exactly the isolated ns/op regression, got %v", fails)
	}
}

func TestGateAllocRegressionFails(t *testing.T) {
	base := parsed(t, baselineText)
	cur := parsed(t, strings.Replace(baselineText,
		"1000 ns/op	       0 B/op	       0 allocs/op",
		"1000 ns/op	      48 B/op	       3 allocs/op", 1))
	_, _, fails := gate(base, cur, 1.10, 1.25)
	if len(fails) != 1 || !strings.Contains(fails[0], "allocation regression") {
		t.Fatalf("0 -> 3 allocs/op must fail absolutely, got %v", fails)
	}
}

// A baseline row the current run lacks is a note, not a failure, and is
// not counted as compared.
func TestGateReportsBaselineOnlyRow(t *testing.T) {
	base := parsed(t, baselineText)
	cur := parsed(t, baselineText)
	delete(cur, "BenchmarkRingPingPong/unpadded")
	compared, notes, fails := gate(base, cur, 1.10, 1.25)
	if len(fails) != 0 {
		t.Fatalf("a missing row must not fail the gate, got %v", fails)
	}
	if compared != 3 {
		t.Fatalf("compared %d benchmarks, want 3", compared)
	}
	if len(notes) != 1 || !strings.Contains(notes[0], "BenchmarkRingPingPong/unpadded") {
		t.Fatalf("want one note naming the baseline-only row, got %v", notes)
	}
}

func TestGateMissingOverlap(t *testing.T) {
	base := parsed(t, baselineText)
	cur := parsed(t, "BenchmarkBrandNew-4 100 50.0 ns/op\n")
	_, _, fails := gate(base, cur, 1.10, 1.25)
	if len(fails) != 1 || !strings.Contains(fails[0], "no benchmarks in common") {
		t.Fatalf("disjoint sets must be reported, got %v", fails)
	}
}

package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math/rand"
	"os"
	"regexp"
	"slices"
	"testing"
)

// No test here asserts on wall-clock: they check names, determinism and
// the verification checks, on passes far too short to measure anything.

func quickOptions(t *testing.T, trace bool) options {
	return options{seed: 1, seconds: 0.2, trace: trace, setups: 1, outDir: t.TempDir(), quick: true}
}

type benchmarkJSON struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// BENCHMARK.json and the program must declare the same workloads and the
// same metrics, with names and units inside the contract's alphabet.
func TestDeclarationsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl benchmarkJSON
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

	if len(decl.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(decl.Workloads), len(specs))
	}
	for i, w := range decl.Workloads {
		if w.Name != specs[i].name || w.Why != specs[i].why {
			t.Errorf("workload %d: BENCHMARK.json %q/%q, program %q/%q", i, w.Name, w.Why, specs[i].name, specs[i].why)
		}
		if !nameRE.MatchString(w.Name) || len(w.Why) > 200 {
			t.Errorf("workload %q: name or why outside the contract's limits", w.Name)
		}
	}
	if len(decl.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(decl.EndToEnd), len(endToEnd))
	}
	for i, m := range decl.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, program %+v", i, m, d)
		}
	}
	if len(decl.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(decl.PerLayer), len(perLayer))
	}
	for i, m := range decl.PerLayer {
		d := perLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, program %+v", i, m, d)
		}
	}
	seen := map[string]bool{}
	for _, d := range slices.Concat(endToEnd, perLayer) {
		if !nameRE.MatchString(d.Name) || !unitRE.MatchString(d.Unit) || (d.Better != "higher" && d.Better != "lower") {
			t.Errorf("metric %+v: outside the contract's alphabet", d)
		}
		if seen[d.Name] {
			t.Errorf("metric %q declared twice", d.Name)
		}
		seen[d.Name] = true
	}
}

// Every workload, both passes: exactly the declared metric names come
// out, and every verification check passes.
func TestQuickRunEmitsDeclaredMetricsAndVerifies(t *testing.T) {
	for i := range specs {
		sp := &specs[i]
		for _, trace := range []bool{false, true} {
			res, err := runPass(sp, quickOptions(t, trace))
			if err != nil {
				t.Fatalf("%s trace=%t: %v", sp.name, trace, err)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%t: %d metrics, want %d", sp.name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				if v, ok := res.Metrics[d.Name]; !ok || v.Unit != d.Unit {
					t.Errorf("%s trace=%t: metric %s missing or unit %q != %q", sp.name, trace, d.Name, v.Unit, d.Unit)
				}
			}
			for _, c := range res.Checks {
				if !c.OK {
					t.Errorf("%s trace=%t: check %s failed: %s", sp.name, trace, c.Name, c.Detail)
				}
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%t: correct=%t attempted=%d failed=%d", sp.name, trace, res.Correct, res.Attempted, res.Failed)
			}
		}
	}
}

// A deliberately broken check — the expected counter sum off by one —
// must fail the run.
func TestBrokenCheckFailsTheRun(t *testing.T) {
	o := quickOptions(t, false)
	o.counterSkew = 1
	res, err := runPass(&specs[1], o)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed == 0 {
		t.Fatalf("counter sum off by one went unnoticed: correct=%t failed=%d", res.Correct, res.Failed)
	}
}

// stream serializes the first n transactions a seed generates.
func stream(sp *spec, seed int64, n int) []byte {
	src := sp.source(0)
	rng := rand.New(rand.NewSource(seed))
	var buf bytes.Buffer
	for i := 0; i < n; i++ {
		t := src.Next(0, rng)
		ro := byte(0)
		if t.ReadOnly {
			ro = 1
		}
		buf.WriteByte(ro)
		for _, op := range t.Ops {
			binary.Write(&buf, binary.LittleEndian, uint32(op.Table))
			binary.Write(&buf, binary.LittleEndian, op.Key)
			buf.WriteByte(byte(op.Mode))
		}
		if t.Free != nil {
			t.Free()
		}
	}
	return buf.Bytes()
}

// The same seed generates byte-identical inputs twice — transactions and
// arrival timeline — and a different seed does not.
func TestInputsAreAFunctionOfTheSeed(t *testing.T) {
	for i := range specs {
		sp := &specs[i]
		a, b, c := stream(sp, 7, 2000), stream(sp, 7, 2000), stream(sp, 8, 2000)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: the same seed generated two different transaction streams", sp.name)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: different seeds generated the same transaction stream", sp.name)
		}
		s1, s2, s3 := poissonSchedule(7, sp.rate, 1e8), poissonSchedule(7, sp.rate, 1e8), poissonSchedule(8, sp.rate, 1e8)
		if !slices.Equal(s1, s2) || slices.Equal(s1, s3) || !slices.IsSorted(s1) || len(s1) == 0 {
			t.Errorf("%s: arrival schedule is not a sorted function of the seed", sp.name)
		}
	}
}

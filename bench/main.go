// Command bench is the repository's system benchmark: five YCSB workloads
// driven through the ORTHRUS engine's public Start/Submit/Drain/Close
// lifecycle from one driver goroutine, reporting a handful of end-to-end
// metrics (untraced pass) and a per-layer cost ledger (traced pass plus a
// single-threaded layer replay). See README.md.
//
//	bash bench/run.sh                                  all workloads, both passes
//	bash bench/run.sh -workload hot_rmw -trace 0       one pass; last line is the result JSON
//	bash bench/run.sh -out A.json && … -out B.json     keep results
//	bash bench/run.sh -compare A.json B.json           diff two result files (or directories)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

// meta records where a result file came from.
type meta struct {
	Command    string `json:"command"`
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	OS         string `json:"os_arch"`
	Time       string `json:"time"`
}

// document is a result file: one run per (workload, pass).
type document struct {
	Meta meta         `json:"meta"`
	Runs []*runResult `json:"runs"`
}

func main() {
	var (
		workload = flag.String("workload", "", "run only this workload (default: all five)")
		seed     = flag.Int64("seed", 1, "seed every input is derived from")
		seconds  = flag.Float64("seconds", 16, "measured seconds per pass")
		trace    = flag.Int("trace", -1, "0: untraced pass (end-to-end metrics); 1: traced pass (per-layer metrics); -1: both")
		quick    = flag.Bool("quick", false, "smoke run: 0.8 measured seconds per pass, one set-up")
		out      = flag.String("out", "", "write the results to this JSON file")
		outDir   = flag.String("outdir", "bench/out", "directory for the traced pass's span files")
		compare  = flag.Bool("compare", false, "compare two result files or directories: -compare A B")
	)
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal("usage: -compare A.json B.json")
		}
		worse, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal("%v", err)
		}
		if worse {
			os.Exit(1)
		}
		return
	}
	if flag.NArg() != 0 {
		fatal("unexpected arguments %q", flag.Args())
	}
	if *seconds <= 0 || *trace < -1 || *trace > 1 {
		fatal("-seconds must be positive and -trace one of -1, 0, 1")
	}

	chosen := specs
	if *workload != "" {
		sp, err := specByName(*workload)
		if err != nil {
			fatal("%v", err)
		}
		chosen = []spec{*sp}
	}
	setups := 9
	if *quick {
		*seconds, setups = 0.8, 1
	}

	// A pass that hangs (a submission never acknowledged leaves Drain
	// waiting) must still end the process with a failure.
	limit := time.Duration(len(chosen)*2) * (time.Duration(*seconds*float64(time.Second)) + 60*time.Second)
	time.AfterFunc(limit, func() { fatal("watchdog: run exceeded %v — a submission was never acknowledged", limit) })

	doc := document{Meta: meta{
		Command:    "bash bench/run.sh " + strings.Join(os.Args[1:], " "),
		Commit:     commit(),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		OS:         runtime.GOOS + "/" + runtime.GOARCH,
		Time:       time.Now().UTC().Format(time.RFC3339),
	}}
	fmt.Printf("# bench seed=%d seconds=%g gomaxprocs=%d nproc=%d %s commit=%s\n",
		*seed, *seconds, doc.Meta.GOMAXPROCS, doc.Meta.NumCPU, doc.Meta.GoVersion, doc.Meta.Commit)

	ok := true
	var last *runResult
	for i := range chosen {
		for pass := 0; pass <= 1; pass++ {
			if *trace >= 0 && *trace != pass {
				continue
			}
			o := options{seed: *seed, seconds: *seconds, trace: pass == 1, setups: setups, outDir: *outDir, quick: *quick}
			if o.trace {
				o.setups = 1 // setup_s comes from the untraced pass
			}
			res, err := runPass(&chosen[i], o)
			if err != nil {
				fatal("%s: %v", chosen[i].name, err)
			}
			printRun(os.Stdout, res)
			doc.Runs = append(doc.Runs, res)
			ok = ok && res.Correct
			last = res
		}
	}
	if *out != "" {
		if err := writeDocument(*out, &doc); err != nil {
			fatal("%v", err)
		}
	}
	// One workload, one pass: the last line of standard output is the
	// result object the benchmark contract reads.
	if len(chosen) == 1 && *trace >= 0 && ok {
		line, err := json.Marshal(struct {
			Correct   bool             `json:"correct"`
			Attempted uint64           `json:"attempted"`
			Failed    uint64           `json:"failed"`
			Metrics   map[string]value `json:"metrics"`
		}{last.Correct, last.Attempted, last.Failed, last.Metrics})
		if err != nil {
			fatal("%v", err)
		}
		fmt.Println(string(line))
	}
	if !ok {
		fmt.Fprintln(os.Stderr, "bench: FAILED — at least one verification check or submission failed")
		os.Exit(1)
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}

// commit names the source the numbers came from; the benchmark also runs
// from exported trees that are not git checkouts.
func commit() string {
	if _, err := os.Stat(".git"); err != nil {
		return "unknown" // do not let git search above the working directory
	}
	b, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}

func writeDocument(path string, doc *document) error {
	b, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// Command orthrus-vet is the repository's invariant checker: a
// go/vet-style multichecker that runs the orthrus analyzers (lockorder;
// hotpath, which reports the hotpath and noalloc rules from one walk;
// atomicfield; configvalidate; panicmsg) over the packages named on the
// command line and exits nonzero on any diagnostic.
//
// Usage:
//
//	go run ./cmd/orthrus-vet ./...
//
// Suppress an individual finding with a justified annotation:
//
//	//orthrus:allow(<rule>) <reason>
//
// on the offending line, the line above it, or the enclosing function's
// doc comment. The reason is mandatory — a bare allow is itself a
// diagnostic.
package main

import (
	"fmt"
	"os"

	"repro/internal/analysis"
	"repro/internal/analysis/atomicfield"
	"repro/internal/analysis/configvalidate"
	"repro/internal/analysis/hotpath"
	"repro/internal/analysis/lockorder"
	"repro/internal/analysis/panicmsg"
)

var analyzers = []*analysis.Analyzer{
	lockorder.Analyzer,
	hotpath.Analyzer,
	atomicfield.Analyzer,
	configvalidate.Analyzer,
	panicmsg.Analyzer,
}

func main() {
	patterns := os.Args[1:]
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	prog, err := analysis.LoadPackages(".", patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "orthrus-vet: %v\n", err)
		os.Exit(2)
	}
	diags, err := prog.Run(analyzers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "orthrus-vet: %v\n", err)
		os.Exit(2)
	}
	for _, d := range diags {
		fmt.Printf("%s: [%s] %s\n", d.Pos, d.Analyzer, d.Message)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "orthrus-vet: %d diagnostic(s)\n", len(diags))
		os.Exit(1)
	}
}

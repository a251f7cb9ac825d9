// Command redvet runs the repo-native static-analysis suite: build-time
// proofs of the hot-path invariants the benchmarks measure dynamically.
//
//	redvet ./...                  run every check
//	redvet -checks noalloc ./...  run a subset
//	redvet -escape ./...          add compiler escape-analysis cross-check
//
// Whenever the noalloc check runs, so does the gate cross-check: every
// //redvet:noalloc gate=... annotation must be listed in the gate table
// (gates.go), which names the tier-1 test measuring it, and vice versa.
//
// Exit codes: 0 clean, 1 findings reported, 2 driver or usage error —
// the contract CI keys off.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"

	"redhanded/internal/analysis"
)

func main() {
	escape := flag.Bool("escape", false, "cross-check noalloc regions against go build -gcflags=-m")
	checks := flag.String("checks", "", "comma-separated check subset (default: all)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: redvet [-escape] [-checks c1,c2] [packages]\n\nchecks:\n")
		for _, a := range analysis.All {
			fmt.Fprintf(os.Stderr, "  %-16s %s\n", a.Name, a.Doc)
		}
		flag.PrintDefaults()
	}
	flag.Parse()

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	analyzers, err := analysis.ByName(*checks)
	if err != nil {
		fmt.Fprintln(os.Stderr, "redvet:", err)
		os.Exit(2)
	}
	dir, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "redvet:", err)
		os.Exit(2)
	}

	prog, err := analysis.Load(dir, patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, "redvet:", err)
		os.Exit(2)
	}

	diags := analysis.Run(prog, analyzers)
	index := analysis.BuildIndex(prog)
	if slices.Contains(analyzers, analysis.NoAlloc) {
		diags = append(diags, checkGates(prog, index)...)
	}
	if *escape {
		esc, err := analysis.EscapeCheck(prog, index)
		if err != nil {
			fmt.Fprintln(os.Stderr, "redvet:", err)
			os.Exit(2)
		}
		diags = append(diags, esc...)
	}

	for _, d := range diags {
		file := d.Pos.Filename
		if rel, err := filepath.Rel(dir, file); err == nil && !filepath.IsAbs(rel) {
			file = rel
		}
		fmt.Printf("%s:%d: [%s] %s\n", file, d.Pos.Line, d.Check, d.Msg)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "redvet: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}

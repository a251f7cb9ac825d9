// Command bench is the repository's one benchmark: it drives the real
// cmd/aggroserve binary as a child process over loopback HTTP and SSE, runs
// the offline engines in-process, checks outputs against an in-process
// reference, and in a separate traced pass times every layer from outside
// through its public functions. See README.md for the metrics, workloads and
// phases, and workloads.go for every constant.
//
// Usage (from the checkout root):
//
//	bash bench/run.sh -seed 42                        every workload, untraced + traced, one result file
//	bash bench/run.sh -seed 42 -workload classify_sync
//	bash bench/run.sh -compare a.json[,a2.json...] b.json[,b2.json...]
//	bash bench/run.sh --workload W --seed N --seconds S --trace 0|1   (BENCHMARK.json contract: one JSON line)
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

var selfPID = os.Getpid()

const outDir = "bench/out" // span files and result files, inside the benchmark's own directory

type workloadList []string

func (l *workloadList) String() string     { return strings.Join(*l, ",") }
func (l *workloadList) Set(v string) error { *l = append(*l, v); return nil }

func main() {
	var names workloadList
	flag.Var(&names, "workload", "workload to run (repeatable; default: all)")
	seed := flag.Uint64("seed", 42, "seed every input is generated from")
	seconds := flag.Float64("seconds", defaultSeconds, "seconds one invocation measures (BENCHMARK.json run_seconds)")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced pass")
	compare := flag.Bool("compare", false, "compare two sets of result files: -compare a.json[,..] b.json[,..]")
	flag.Parse()

	if err := run(names, *seed, *seconds, *trace, *compare, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(names workloadList, seed uint64, seconds float64, trace int, compare bool, args []string) error {
	if compare {
		if len(args) != 2 {
			return errors.New("-compare takes two arguments: result files of the base and of the change")
		}
		return compareFiles(os.Stdout, args[0], args[1])
	}
	if len(args) > 0 {
		return fmt.Errorf("unexpected arguments %q", args)
	}
	if seconds < 1 || (trace != 0 && trace != 1) {
		return errors.New("-seconds must be at least 1 and -trace 0 or 1")
	}
	var selected []workload
	for _, n := range names {
		w, err := findWorkload(n)
		if err != nil {
			return err
		}
		selected = append(selected, w)
	}
	root, err := os.Getwd()
	if err != nil {
		return err
	}
	if _, err := os.Stat(filepath.Join(root, "cmd", "aggroserve", "main.go")); err != nil {
		return fmt.Errorf("run from the checkout root (bash bench/run.sh): %w", err)
	}
	if err := os.MkdirAll(filepath.Join(root, outDir), 0o755); err != nil {
		return err
	}
	traceSet := false
	flag.Visit(func(f *flag.Flag) { traceSet = traceSet || f.Name == "trace" })
	if traceSet {
		// The contract's invocation: one workload, one pass, one JSON line.
		if len(selected) != 1 {
			return errors.New("-trace needs exactly one -workload")
		}
		return runOne(root, selected[0], seed, seconds, trace == 1)
	}
	if len(selected) == 0 {
		selected = workloads
	}
	return runAll(root, selected, seed, seconds)
}

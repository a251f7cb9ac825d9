package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// header ties a result to the machine, commit and configuration that
// produced it. It is written into every run file and result file.
type header struct {
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	CPUModel   string  `json:"cpu_model"`
	GitCommit  string  `json:"git_commit"`
	BuildS     float64 `json:"build_s"`
	ClockTick  int     `json:"clock_tick_hz"`
	// ScratchFS is the filesystem under the invocation's scratch directory,
	// where the write-ahead-log leg and the correctness pass keep their WAL. On
	// tmpfs an fsync costs nothing; on a disk it costs what the disk costs.
	ScratchFS string `json:"ingestlog.dir_fs"`
}

func newHeader(root, scratch string, seed uint64, seconds, buildS float64) header {
	h := header{
		Seed: seed, Seconds: seconds, BuildS: buildS, ClockTick: clockTick,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		CPUModel: "unknown", GitCommit: "unknown", ScratchFS: "unknown",
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	if out, err := cmd.Output(); err == nil { // a bare checkout has no commit to name
		h.GitCommit = strings.TrimSpace(string(out))
	}
	var fs syscall.Statfs_t
	if err := syscall.Statfs(scratch, &fs); err == nil {
		switch fs.Type {
		case 0x01021994:
			h.ScratchFS = "tmpfs"
		case 0xEF53:
			h.ScratchFS = "ext4"
		case 0x58465342:
			h.ScratchFS = "xfs"
		case 0x9123683E:
			h.ScratchFS = "btrfs"
		case 0x794C7630:
			h.ScratchFS = "overlayfs"
		default:
			h.ScratchFS = fmt.Sprintf("0x%X", fs.Type)
		}
	}
	return h
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runFile is the full record of one invocation of one workload
// (bench/out/run-<workload>-trace<n>.json); a result file is a list of them.
type runFile struct {
	header
	Workload  string                 `json:"workload"`
	Trace     int                    `json:"trace"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	// Raw holds the uncalibrated medians of the timed end-to-end metrics and
	// the median probe readings; Rounds every round of a serving run.
	Raw    map[string]float64 `json:"uncalibrated,omitempty"`
	Rounds []round            `json:"rounds,omitempty"`
	Argv   []string           `json:"aggroserve_argv,omitempty"`
	Notes  []string           `json:"notes,omitempty"`
}

type resultFile struct {
	Runs []runFile `json:"runs"`
}

// contractLine is the last line of standard output of a contract invocation.
type contractLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func runPath(root, workload string, trace int) string {
	return filepath.Join(root, outDir, fmt.Sprintf("run-%s-trace%d.json", workload, trace))
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// runOne is one contract invocation: build the server, check correctness,
// run one pass of one workload, print its metrics.
func runOne(root string, w workload, seed uint64, seconds float64, traced bool) error {
	buildDir := filepath.Join(root, ".bench_build")
	e := &env{root: root, tmp: filepath.Join(buildDir, fmt.Sprintf("run-%d", selfPID)), seed: seed, seconds: seconds}
	if err := os.MkdirAll(e.tmp, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(e.tmp)
	bin, buildS, err := buildServer(root, buildDir)
	if err != nil {
		return err
	}
	e.bin = bin
	e.probe = newProber()
	e.probe.measure(runtime.NumCPU()) // the probe's own first touch of its memory is not a reading
	hdr := newHeader(root, e.tmp, seed, seconds, buildS)

	var res *result
	defs, trace := endToEnd, 0
	if traced {
		defs, trace = perLayer, 1
	}
	if w.kind.serving() {
		replayTPS, err := e.check()
		if err != nil {
			return fmt.Errorf("correctness pass: %w", err)
		}
		if traced {
			res, err = e.traceServing(w, replayTPS)
		} else {
			res, err = e.runServing(w)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
	} else {
		if res, err = e.runOffline(w, traced); err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
	}

	rf := runFile{header: hdr, Workload: w.name, Trace: trace, Attempted: res.attempted, Failed: res.failed,
		Metrics: make(map[string]metricValue, len(defs)), Raw: res.raw, Rounds: res.rounds, Argv: res.argv, Notes: res.notes}
	for _, d := range defs {
		v, ok := res.metrics[d.name]
		if !ok && !traced {
			return fmt.Errorf("%s: end-to-end metric %s was not measured", w.name, d.name)
		}
		rf.Metrics[d.name] = metricValue{Value: v, Unit: d.unit} // a layer metric that does not apply reads 0
	}
	for name := range res.metrics {
		if _, ok := rf.Metrics[name]; !ok {
			return fmt.Errorf("%s: metric %s is not in the table of workloads.go", w.name, name)
		}
	}
	if err := writeJSON(runPath(root, w.name, trace), rf); err != nil {
		return err
	}
	printRun(os.Stderr, rf, defs)
	line, err := json.Marshal(contractLine{Correct: true, Attempted: rf.Attempted, Failed: rf.Failed, Metrics: rf.Metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(os.Stdout, "%s\n", line)
	return err
}

func printRun(w *os.File, rf runFile, defs []metricDef) {
	hdr, _ := json.Marshal(rf.header) // plain struct of scalars: cannot fail
	fmt.Fprintf(w, "header %s\n", hdr)
	if len(rf.Argv) > 0 {
		fmt.Fprintf(w, "server %s\n", strings.Join(rf.Argv, " "))
	}
	for _, n := range rf.Notes {
		fmt.Fprintf(w, "%s: %s\n", rf.Workload, n)
	}
	for _, d := range defs {
		fmt.Fprintf(w, "%-20s %-42s %14.4f %s\n", rf.Workload, d.name, rf.Metrics[d.name].Value, d.unit)
	}
	fmt.Fprintf(w, "%s: attempted %d, failed %d\n", rf.Workload, rf.Attempted, rf.Failed)
}

// runAll is the one command: every selected workload, untraced then traced,
// each as its own child process (so one workload's memory and CPU cannot
// leak into another's numbers and every sample is exactly a contract
// invocation), gathered into one result file.
func runAll(root string, selected []workload, seed uint64, seconds float64) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var out resultFile
	for _, w := range selected {
		for trace := 0; trace <= 1; trace++ {
			cmd := exec.Command(self, "-workload", w.name, "-seed", fmt.Sprint(seed),
				"-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(trace))
			cmd.Dir = root
			cmd.Stderr = os.Stderr
			var stdout bytes.Buffer
			cmd.Stdout = &stdout
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("%s (trace %d): %w", w.name, trace, err)
			}
			var rf runFile
			data, err := os.ReadFile(runPath(root, w.name, trace))
			if err == nil {
				err = json.Unmarshal(data, &rf)
			}
			if err != nil {
				return fmt.Errorf("%s (trace %d): read run file: %w", w.name, trace, err)
			}
			out.Runs = append(out.Runs, rf)
		}
	}
	path := filepath.Join(root, outDir, fmt.Sprintf("result-seed%d-%d.json", seed, time.Now().Unix()))
	if err := writeJSON(path, out); err != nil {
		return err
	}
	fmt.Printf("result file: %s\n", path)
	return nil
}

// loadResults reads a comma-separated set of result files and returns, for
// every workload, each end-to-end metric's values across the set.
func loadResults(set string) (map[string]map[string][]float64, error) {
	out := make(map[string]map[string][]float64)
	for _, path := range strings.Split(set, ",") {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var rf resultFile
		if err := json.Unmarshal(data, &rf); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		for _, r := range rf.Runs {
			if r.Trace != 0 {
				continue
			}
			if out[r.Workload] == nil {
				out[r.Workload] = make(map[string][]float64)
			}
			for name, m := range r.Metrics {
				out[r.Workload][name] = append(out[r.Workload][name], m.Value)
			}
		}
	}
	return out, nil
}

// compareFiles prints one row per workload x end-to-end metric: the median
// of each set, the ratio change/base with its base, and whether the change
// is within the metric's bound. "Worse" follows the metric's direction.
func compareFiles(w *os.File, baseSet, changeSet string) error {
	base, err := loadResults(baseSet)
	if err != nil {
		return err
	}
	change, err := loadResults(changeSet)
	if err != nil {
		return err
	}
	names := make([]string, 0, len(base))
	for name := range base {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-20s %-24s %14s %14s %22s %8s  %s\n", "workload", "metric", "base", "change", "change/base", "bound", "verdict")
	exceeded := 0
	for _, name := range names {
		for _, d := range endToEnd {
			b, c := base[name][d.name], change[name][d.name]
			if len(b) == 0 || len(c) == 0 {
				continue
			}
			verdict, ratio := judge(d, median(b), median(c))
			if verdict == "exceeds" {
				exceeded++
			}
			fmt.Fprintf(w, "%-20s %-24s %14.4f %14.4f %9.4f of %-9.4g %7.0f%%  %s (n=%d,%d)\n",
				name, d.name, median(b), median(c), ratio, median(b), 100*d.bound, verdict, len(b), len(c))
		}
	}
	fmt.Fprintf(w, "%d rows exceed their bound\n", exceeded)
	return nil
}

// judge reports whether change is worse than base by more than the metric's
// bound, and the ratio change/base.
func judge(d metricDef, base, change float64) (string, float64) {
	ratio := change / base
	worse := ratio - 1
	if d.better == "higher" {
		worse = 1 - ratio
	}
	if worse > d.bound {
		return "exceeds", ratio
	}
	return "within", ratio
}

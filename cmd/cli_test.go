// Package cmd_test exercises the command-line tools end to end: datagen's
// JSONL output must stream cleanly through aggrostream's detection
// pipeline.
package cmd_test

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// buildTool compiles one command into the test temp dir.
func buildTool(t *testing.T, dir, name string) string {
	t.Helper()
	bin := filepath.Join(dir, name)
	cmd := exec.Command("go", "build", "-o", bin, "redhanded/cmd/"+name)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building %s: %v\n%s", name, err, out)
	}
	return bin
}

func TestDatagenAggrostreamRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI round trip is slow")
	}
	dir := t.TempDir()
	datagen := buildTool(t, dir, "datagen")
	aggrostream := buildTool(t, dir, "aggrostream")

	dataFile := filepath.Join(dir, "tweets.jsonl")
	gen := exec.Command(datagen, "-dataset", "aggression", "-scale", "0.05", "-out", dataFile)
	if out, err := gen.CombinedOutput(); err != nil {
		t.Fatalf("datagen: %v\n%s", err, out)
	}

	run := exec.Command(aggrostream, "-in", dataFile, "-classes", "2")
	out, err := run.CombinedOutput()
	if err != nil {
		t.Fatalf("aggrostream: %v\n%s", err, out)
	}
	text := string(out)
	for _, want := range []string{"prequential evaluation", "alerts raised", "BoW size"} {
		if !strings.Contains(text, want) {
			t.Errorf("aggrostream output missing %q:\n%s", want, text)
		}
	}
	if !strings.Contains(text, "accuracy=0.9") && !strings.Contains(text, "accuracy=0.8") {
		t.Errorf("suspicious accuracy in output:\n%s", text)
	}
}

func TestDatagenSarcasmAndOffensive(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI test is slow")
	}
	dir := t.TempDir()
	datagen := buildTool(t, dir, "datagen")
	for _, ds := range []string{"sarcasm", "offensive"} {
		out, err := exec.Command(datagen, "-dataset", ds, "-scale", "0.01", "-out",
			filepath.Join(dir, ds+".jsonl")).CombinedOutput()
		if err != nil {
			t.Fatalf("datagen %s: %v\n%s", ds, err, out)
		}
	}
}

func TestRhdriverAgainstRhexecutors(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI cluster test is slow")
	}
	dir := t.TempDir()
	datagen := buildTool(t, dir, "datagen")
	rhexecutor := buildTool(t, dir, "rhexecutor")
	rhdriver := buildTool(t, dir, "rhdriver")

	dataFile := filepath.Join(dir, "tweets.jsonl")
	if out, err := exec.Command(datagen, "-dataset", "aggression", "-scale", "0.03",
		"-out", dataFile).CombinedOutput(); err != nil {
		t.Fatalf("datagen: %v\n%s", err, out)
	}

	// Two executors on fixed high ports (retry once on conflict).
	addrs := []string{"127.0.0.1:39761", "127.0.0.1:39762"}
	for _, addr := range addrs {
		cmd := exec.Command(rhexecutor, "-addr", addr, "-workers", "2")
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			cmd.Process.Kill()
			cmd.Wait()
		})
	}

	var out []byte
	var err error
	for attempt := 0; attempt < 20; attempt++ {
		out, err = exec.Command(rhdriver,
			"-executors", strings.Join(addrs, ","),
			"-in", dataFile, "-batch", "500", "-tasks", "2").CombinedOutput()
		if err == nil {
			break
		}
		time.Sleep(200 * time.Millisecond) // executors may still be starting
	}
	if err != nil {
		t.Fatalf("rhdriver: %v\n%s", err, out)
	}
	text := string(out)
	if !strings.Contains(text, "prequential") || !strings.Contains(text, "processed") {
		t.Fatalf("rhdriver output incomplete:\n%s", text)
	}
}

// TestBinariesRejectBadOptions: the three binaries that take -model,
// -classes and -norm share one parser each, so a value none of them knows
// ends every one of them non-zero, naming the value, before it touches the
// network or its input. (rhdriver has no -norm; the flag package rejects it.)
func TestBinariesRejectBadOptions(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI test is slow")
	}
	dir := t.TempDir()
	for _, tool := range []struct {
		name string
		args []string
	}{
		{"aggroserve", []string{"-addr", "127.0.0.1:0"}},
		{"aggrostream", nil},
		{"rhdriver", []string{"-executors", "127.0.0.1:1"}},
	} {
		bin := buildTool(t, dir, tool.name)
		for _, bad := range [][2]string{{"-classes", "4"}, {"-model", "xgb"}, {"-norm", "l2"}} {
			cmd := exec.Command(bin, append(tool.args, bad[0], bad[1])...)
			cmd.Stdin = strings.NewReader("")
			out, err := cmd.CombinedOutput()
			if err == nil {
				t.Errorf("%s %s %s exited zero:\n%s", tool.name, bad[0], bad[1], out)
			} else if !strings.Contains(string(out), bad[1]) && !strings.Contains(string(out), bad[0]) {
				t.Errorf("%s %s %s failed without naming the option:\n%s", tool.name, bad[0], bad[1], out)
			}
		}
	}
}

// startExecutor runs rhexecutor on a free loopback port until the test
// ends and returns the address it listens on.
func startExecutor(t *testing.T, bin string) string {
	t.Helper()
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-workers", "1")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})
	listening := regexp.MustCompile(`msg="executor listening" executor=(\S+)`)
	sc := bufio.NewScanner(stderr)
	for sc.Scan() {
		if m := listening.FindStringSubmatch(sc.Text()); m != nil {
			go io.Copy(io.Discard, stderr) // the executor must never block on its log
			return m[1]
		}
	}
	t.Fatalf("rhexecutor exited before listening: %v", sc.Err())
	return ""
}

// TestCommandsFailOnUnreadableInput: a line over the JSONL reader's 4 MiB
// cap, and an input that cannot be read at all (a directory), each end
// aggrostream and rhdriver non-zero with an error naming the line, well
// inside a 10 s deadline. A command that took the read error for one more
// malformed line and read again would spin until the deadline kills it.
func TestCommandsFailOnUnreadableInput(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI test is slow")
	}
	dir := t.TempDir()
	datagen := buildTool(t, dir, "datagen")
	aggrostream := buildTool(t, dir, "aggrostream")
	rhdriver := buildTool(t, dir, "rhdriver")
	addr := startExecutor(t, buildTool(t, dir, "rhexecutor"))

	clean := filepath.Join(dir, "tweets.jsonl")
	if out, err := exec.Command(datagen, "-dataset", "aggression", "-scale", "0.01",
		"-out", clean).CombinedOutput(); err != nil {
		t.Fatalf("datagen: %v\n%s", err, out)
	}
	data, err := os.ReadFile(clean)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(data), "\n")
	half := len(lines) / 2
	overCap := filepath.Join(dir, "overcap.jsonl")
	err = os.WriteFile(overCap, []byte(strings.Join(lines[:half], "")+
		strings.Repeat("x", 5<<20)+"\n"+strings.Join(lines[half:], "")), 0o644)
	if err != nil {
		t.Fatal(err)
	}

	for _, in := range []struct{ path, line string }{
		{overCap, fmt.Sprintf("line %d:", half+1)},
		{dir, "line 1:"},
	} {
		for _, args := range [][]string{
			{aggrostream, "-in", in.path},
			{rhdriver, "-executors", addr, "-batch", "100", "-tasks", "1", "-in", in.path},
		} {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			out, err := exec.CommandContext(ctx, args[0], args[1:]...).CombinedOutput()
			hung := errors.Is(ctx.Err(), context.DeadlineExceeded)
			cancel()
			name := filepath.Base(args[0]) + " -in " + filepath.Base(in.path)
			switch {
			case hung:
				t.Errorf("%s: still running at the 10 s deadline", name)
			case err == nil:
				t.Errorf("%s exited zero:\n%s", name, out)
			case !strings.Contains(string(out), in.line):
				t.Errorf("%s failed without naming %q:\n%.2000s", name, in.line, out)
			}
		}
	}
}

func TestBenchrunnerList(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI test is slow")
	}
	dir := t.TempDir()
	benchrunner := buildTool(t, dir, "benchrunner")
	out, err := exec.Command(benchrunner, "-list").CombinedOutput()
	if err != nil {
		t.Fatalf("benchrunner -list: %v\n%s", err, out)
	}
	for _, id := range []string{"table1", "table2", "fig4", "fig17"} {
		if !strings.Contains(string(out), id) {
			t.Errorf("benchrunner -list missing %s", id)
		}
	}
}

package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"redhanded/internal/obs"
	"redhanded/internal/serve"
)

// clockTick is the unit of /proc/<pid>/stat CPU times. Linux has reported
// USER_HZ = 100 on every architecture for two decades; header() records it.
const clockTick = 100

// buildServer compiles cmd/aggroserve from the checkout into dir and returns
// the binary's path and how long the build took. The build environment
// (GOCACHE and friends) comes from bench/run.sh.
func buildServer(root, dir string) (string, float64, error) {
	bin := filepath.Join(dir, "aggroserve")
	start := time.Now()
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/aggroserve")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", 0, fmt.Errorf("go build ./cmd/aggroserve: %w\n%s", err, out)
	}
	return bin, time.Since(start).Seconds(), nil
}

// server is one aggroserve child process under test.
type server struct {
	cmd    *exec.Cmd
	argv   []string
	base   string
	client *http.Client
	stderr bytes.Buffer
	exited chan struct{}
	// readyS is process start to first 200 on /healthz.
	readyS float64
}

// freeAddr asks the kernel for an unused loopback port. The listener is
// closed before the server binds it; losing that race fails the start
// loudly rather than silently.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("no free loopback port: %w", err)
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// startServer spawns aggroserve with the harness's fixed flags plus extra and
// waits for /healthz.
func startServer(bin string, shards int, extra ...string) (*server, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	s := &server{
		argv:   append([]string{"aggroserve"}, serverArgs(addr, shards, extra...)...),
		base:   "http://" + addr,
		client: &http.Client{Timeout: 10 * time.Second, Transport: &http.Transport{MaxIdleConnsPerHost: 16}},
		exited: make(chan struct{}),
	}
	s.cmd = exec.Command(bin, s.argv[1:]...)
	s.cmd.Stderr = &s.stderr
	start := time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start aggroserve: %w", err)
	}
	go func() {
		_ = s.cmd.Wait() // exit status is reported through s.exited + stderr
		close(s.exited)
	}()
	for {
		resp, err := s.client.Get(s.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				s.readyS = time.Since(start).Seconds()
				return s, nil
			}
		}
		select {
		case <-s.exited:
			return nil, fmt.Errorf("aggroserve exited before serving: %s", s.stderr.String())
		case <-time.After(2 * time.Millisecond):
		}
		if time.Since(start) > 60*time.Second {
			s.kill()
			return nil, fmt.Errorf("aggroserve not healthy after 60s: %s", s.stderr.String())
		}
	}
}

// kill ends the process with SIGKILL and waits for it to be gone. The
// servers under test hold no state worth a graceful shutdown, and the
// correctness pass wants exactly this crash.
func (s *server) kill() {
	_ = s.cmd.Process.Kill() // already-exited is fine
	<-s.exited
	s.client.CloseIdleConnections()
}

func (s *server) getJSON(path string, v any) error {
	resp, err := s.client.Get(s.base + path)
	if err != nil {
		return fmt.Errorf("GET %s: %w", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		return fmt.Errorf("GET %s: decode: %w", path, err)
	}
	return nil
}

func (s *server) stats() (serve.Stats, error) {
	var st serve.Stats
	err := s.getJSON("/v1/stats", &st)
	return st, err
}

func (s *server) trace() (obs.Summary, error) {
	var sum obs.Summary
	err := s.getJSON("/v1/trace", &sum)
	return sum, err
}

// promText is one scrape of /metrics.
type promText struct {
	sums    map[string]float64             // series name -> value summed over its label sets
	buckets map[string]map[float64]float64 // histogram series name{labels} -> le -> cumulative count
}

// metrics scrapes /metrics. Histograms appear in sums as name_sum and
// name_count, and bucket by bucket in buckets.
func (s *server) metrics() (*promText, error) {
	resp, err := s.client.Get(s.base + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("GET /metrics: %w", err)
	}
	defer resp.Body.Close()
	return parseMetrics(resp.Body)
}

func parseMetrics(r io.Reader) (*promText, error) {
	out := &promText{sums: make(map[string]float64), buckets: make(map[string]map[float64]float64)}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		name, labels, _ := strings.Cut(line[:sp], "{")
		if i := strings.Index(labels, `le="`); i >= 0 {
			le, err := strconv.ParseFloat(strings.TrimSuffix(labels[i+len(`le="`):], `"}`), 64)
			if err != nil {
				continue // the +Inf bucket: the same number as name_count
			}
			series := name + "{" + strings.TrimSuffix(labels[:i], ",")
			if out.buckets[series] == nil {
				out.buckets[series] = make(map[float64]float64)
			}
			out.buckets[series][le] = v
			continue
		}
		out.sums[name] += v
	}
	return out, sc.Err()
}

// quantileSince estimates quantile q of a histogram series over the
// observations made between two scrapes, assuming — as the server's own
// Quantile does — that observations are uniform within a bucket.
func quantileSince(before, after *promText, series string, q float64) float64 {
	var bounds []float64
	for le := range after.buckets[series] {
		bounds = append(bounds, le)
	}
	sort.Float64s(bounds)
	if len(bounds) == 0 {
		return 0
	}
	cum := func(le float64) float64 { return after.buckets[series][le] - before.buckets[series][le] }
	rank := q * cum(bounds[len(bounds)-1])
	lo, seen := 0.0, 0.0
	for _, hi := range bounds {
		if c := cum(hi) - seen; c > 0 && seen+c >= rank {
			return lo + (hi-lo)*(rank-seen)/c
		}
		lo, seen = hi, cum(hi)
	}
	return bounds[len(bounds)-1]
}

// waitDrained polls /v1/stats until every accepted tweet is processed and
// returns the stats that showed it together with the moment they were read.
func (s *server) waitDrained(ctx context.Context) (serve.Stats, time.Time, error) {
	for {
		st, err := s.stats()
		at := time.Now()
		if err != nil {
			return st, at, err
		}
		if st.Processed >= st.Accepted {
			return st, at, nil
		}
		select {
		case <-ctx.Done():
			return st, at, fmt.Errorf("server did not drain: processed %d of %d accepted", st.Processed, st.Accepted)
		case <-s.exited:
			return st, at, fmt.Errorf("aggroserve died: %s", s.stderr.String())
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// waitSubscribed blocks until the server counts n SSE subscribers. The
// stream writes ": connected" before it subscribes, so waiting for that
// comment line would lose the first alerts.
func (s *server) waitSubscribed(ctx context.Context, n int) error {
	for {
		st, err := s.stats()
		if err != nil {
			return err
		}
		if st.Subscribers >= n {
			return nil
		}
		select {
		case <-ctx.Done():
			return errors.New("SSE reader never showed up in alert_subscribers")
		case <-time.After(time.Millisecond):
		}
	}
}

// cpuSeconds is the process's user+system CPU time from /proc/<pid>/stat.
func cpuSeconds(pid int) (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	return parseStatCPU(raw)
}

func parseStatCPU(raw []byte) (float64, error) {
	// comm may hold spaces and parentheses; fields are counted after the
	// last ')'. utime and stime are fields 14 and 15, i.e. 12 and 13 after.
	i := bytes.LastIndexByte(raw, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	f := bytes.Fields(raw[i+1:])
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	utime, err1 := strconv.ParseUint(string(f[11]), 10, 64)
	stime, err2 := strconv.ParseUint(string(f[12]), 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return float64(utime+stime) / clockTick, nil
}

// peakRSSMB is the process's high-water resident set (VmHWM) in MB.
func peakRSSMB(pid int) (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

func (s *server) pid() int { return s.cmd.Process.Pid }

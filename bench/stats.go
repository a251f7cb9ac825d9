package main

import (
	"bytes"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"time"
)

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of sorted,
// which must be ascending. An empty input reads 0.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// Steal is the one disturbance the guest can see, in /proc/stat. On the
// reference box it comes in episodes: for half a minute or several the
// hypervisor takes a third or more of both vCPUs away, throughput halves, and
// an open loop at a fixed rate builds a queue that says nothing about the
// program. A reading taken in such a stretch measures the host. So a round
// (or an offline window) that saw more than maxStealShare of its CPU time
// stolen is spoiled: it is left out, the run waits for the host to go quiet,
// and measures another in its place, for as long as the run's grace lasts.

// hostSteal reads the cumulative steal time of the machine, in clock ticks.
// A kernel that does not report steal reads 0 throughout, which disables the
// filter and nothing else.
func hostSteal() float64 {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := bytes.Cut(raw, []byte("\n"))
	f := bytes.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 {
		return 0
	}
	v, _ := strconv.ParseFloat(string(f[8]), 64)
	return v
}

// stealShare is the share of the machine's CPU time the hypervisor took
// away, given the steal ticks counted over an interval.
func stealShare(ticks float64, over time.Duration) float64 {
	return ticks / (over.Seconds() * float64(runtime.NumCPU()) * clockTick)
}

// waitQuiet sleeps until a quietLook has passed with no more than
// maxStealShare stolen, or until deadline.
func waitQuiet(deadline time.Time) {
	for time.Now().Add(quietLook).Before(deadline) {
		before := hostSteal()
		time.Sleep(quietLook)
		if stealShare(hostSteal()-before, quietLook) <= maxStealShare {
			return
		}
	}
}

// sample is one verdict: when its request was due (offset from the phase
// start) and how long after that the verdict reached the client.
type sample struct {
	due     time.Duration
	latency time.Duration
}

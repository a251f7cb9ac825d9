package main

import (
	"runtime"
	"strconv"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The reference box is a small VM on a shared host, and what it shares is
// the memory system: a loop of pure arithmetic takes the same CPU time to
// within 5% from one second to the next, while Pipeline.Process — hash maps,
// user state, feature vectors, small allocations — takes between 16 and 42 us
// of CPU time per tweet depending on what the neighbours are doing to the
// last-level cache, and drifts by a fifth from one minute to the next. No
// statistic over a run's own windows removes that: a run lives inside one
// stretch of the drift.
//
// So the benchmark carries its own clock. The probe below is a fixed piece
// of work that touches memory the way the pipeline does; it runs between the
// timed segments of every workload (never during one), and each segment's
// times are read against the probes on either side of it: a segment that ran
// while the probe was taking 1.4x its nominal time has its times divided by
// 1.4. What the metrics then report is time on the reference box at its
// nominal speed, probeNominalNS per probe unit. A change to the program moves
// them exactly as it moves the raw times; the host's weather does not.
//
// The probe's mix was fitted, not guessed: over two minutes of one-second
// windows, Process's CPU time was regressed on a compute-only kernel and a
// memory-walking one, and the probe does the two in the fitted proportion
// (README, "The calibrated clock"). Raw readings are kept beside the
// calibrated ones in every run file.

const (
	probeWords     = 60_000  // distinct keys of the probe's map
	probeTable     = 1 << 18 // float64s walked at random: 2 MB, larger than a core's private cache
	probeLookups   = 4_200   // map lookups + table reads per unit
	probeSpins     = 590_000 // multiply-xor steps per unit
	probeUnits     = 12      // units per thread per probe; a reading is the median unit
	probeNominalNS = 1.5e6   // what one unit costs on the reference box at its nominal speed
)

// prober holds the probe's read-only working set.
type prober struct {
	words []string
	dict  map[string]int
	table []float64
}

func newProber() *prober {
	p := &prober{dict: make(map[string]int, probeWords), table: make([]float64, probeTable)}
	for i := 0; i < probeWords; i++ {
		w := "w" + strconv.Itoa(i*7919%probeWords)
		p.words = append(p.words, w)
		p.dict[w] = i
	}
	for i := range p.table {
		p.table[i] = float64(i)
	}
	return p
}

// probeSink keeps the compiler from discarding the probe's work.
var probeSink float64

// unit is one unit of probe work on the calling goroutine. state is the
// caller's private generator state and scratch, so threads share only
// read-only data.
func (p *prober) unit(state *uint32, keep *[64][]byte) float64 {
	var s float64
	x := *state
	for i := 0; i < probeLookups; i++ {
		x = x*1103515245 + 12345
		id := p.dict[p.words[int(x>>8)%probeWords]]
		s += p.table[(id*2654435761)&(probeTable-1)]
		if i%8 == 0 {
			b := make([]byte, 128+id%256)
			b[0] = byte(id)
			keep[(i/8)&63] = b
		}
	}
	*state = x
	h := uint64(x) | 1
	for i := 0; i < probeSpins; i++ {
		h ^= uint64(i)
		h *= 1099511628211
	}
	return s + float64(h&1)
}

// threadCPU is the calling OS thread's CPU time.
func threadCPU() time.Duration {
	const clockThreadCPUTime = 3 // CLOCK_THREAD_CPUTIME_ID
	var ts syscall.Timespec
	// The call cannot fail with a valid clock id and pointer.
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// speed is one probe reading: the CPU time the median unit took, as a
// multiple of probeNominalNS. CPU time, not elapsed time: the probe is then
// blind to being descheduled, which is the scheduler's noise and not the
// memory system's, and the rounds the hypervisor interrupts are left out by
// the steal gate (stats.go) rather than corrected for.
type speed float64

// measure runs the probe on `threads` OS threads at once — as many as the
// segment it calibrates keeps busy, so the probe's threads contend with each
// other for the shared cache the way the program's do — and returns the
// median unit's cost.
func (p *prober) measure(threads int) speed {
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		cpus []float64
	)
	for t := 0; t < threads; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			runtime.LockOSThread() // the thread CPU clock must stay this goroutine's
			defer runtime.UnlockOSThread()
			state, keep := uint32(t+1), new([64][]byte)
			var sum float64
			c := make([]float64, probeUnits)
			for u := range c {
				c0 := threadCPU()
				sum += p.unit(&state, keep)
				c[u] = float64(threadCPU() - c0)
			}
			mu.Lock()
			cpus = append(cpus, c...)
			probeSink += sum
			mu.Unlock()
		}(t)
	}
	wg.Wait()
	return speed(median(cpus) / probeNominalNS)
}

// between is the speed a segment ran at: the mean of the probes before and
// after it.
func between(a, b speed) speed { return (a + b) / 2 }

package obs

import (
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"sync"
	"time"

	"redhanded/internal/metrics"
)

// memSampler caches runtime.ReadMemStats so a metrics scrape hitting all
// heap gauges pays one stop-the-world read, not one per gauge.
type memSampler struct {
	mu   sync.Mutex
	at   time.Time
	stat runtime.MemStats
}

func (m *memSampler) sample() runtime.MemStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	if time.Since(m.at) > time.Second {
		runtime.ReadMemStats(&m.stat)
		m.at = time.Now()
	}
	return m.stat
}

// RegisterRuntimeGauges registers Go runtime health series on reg: gauges
// for goroutines and heap bytes/objects, counters for total GC pause and
// GC cycles. Heap figures are sampled at most once per second to bound
// ReadMemStats cost.
func RegisterRuntimeGauges(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	ms := &memSampler{}
	reg.GaugeFunc("redhanded_goroutines", "Number of live goroutines.", nil,
		func() float64 { return float64(runtime.NumGoroutine()) })
	reg.GaugeFunc("redhanded_heap_alloc_bytes", "Bytes of allocated heap objects.", nil,
		func() float64 { s := ms.sample(); return float64(s.HeapAlloc) })
	reg.GaugeFunc("redhanded_heap_objects", "Number of allocated heap objects.", nil,
		func() float64 { s := ms.sample(); return float64(s.HeapObjects) })
	reg.CounterFunc("redhanded_gc_pause_total_seconds", "Cumulative GC stop-the-world pause time.", nil,
		func() float64 { s := ms.sample(); return float64(s.PauseTotalNs) / 1e9 })
	reg.CounterFunc("redhanded_gc_cycles_total", "Completed GC cycles.", nil,
		func() float64 { s := ms.sample(); return float64(s.NumGC) })
}

// DebugMux builds the opt-in debug mux: net/http/pprof under /debug/pprof/,
// the tracer's /v1/trace endpoints (valid on a nil tracer), and the default
// metrics registry on /metrics — so a binary without its own metrics
// endpoint (rhdriver) still exposes the runtime gauges. It is separate from
// the serving mux so profiling never shares a listener with production
// traffic unless the operator asks for it.
func DebugMux(t *Tracer) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/v1/trace", TraceHandler(t))
	mux.Handle("/v1/trace/slow", SlowHandler(t))
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		_ = metrics.Default().WriteText(w)
	})
	return mux
}

// StartDebugServer listens on addr and serves DebugMux in a background
// goroutine, returning the bound listener (so addr may use port 0) and a
// shutdown func. Used by the -debug-addr flag on aggroserve/rhdriver.
func StartDebugServer(addr string, t *Tracer) (net.Listener, func(), error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, nil, err
	}
	srv := &http.Server{Handler: DebugMux(t)}
	go func() { _ = srv.Serve(ln) }()
	return ln, func() { _ = srv.Close() }, nil
}

package obs

import (
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"

	"redhanded/internal/metrics"
)

// RegisterRuntimeGauges registers on reg one collector of Go runtime
// health: gauges for goroutines and heap bytes/objects, counters for total
// GC pause and GC cycles. Each scrape reads the heap figures with one
// runtime.ReadMemStats.
func RegisterRuntimeGauges(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	reg.Collect("obs.runtime", func(w *metrics.Writer) {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		w.Gauge("redhanded_goroutines", "Number of live goroutines.").Sample(nil, float64(runtime.NumGoroutine()))
		w.Gauge("redhanded_heap_alloc_bytes", "Bytes of allocated heap objects.").Sample(nil, float64(ms.HeapAlloc))
		w.Gauge("redhanded_heap_objects", "Number of allocated heap objects.").Sample(nil, float64(ms.HeapObjects))
		w.Counter("redhanded_gc_pause_total_seconds", "Cumulative GC stop-the-world pause time.").Sample(nil, float64(ms.PauseTotalNs)/1e9)
		w.Counter("redhanded_gc_cycles_total", "Completed GC cycles.").Sample(nil, float64(ms.NumGC))
	})
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

package engine

import (
	"strings"
	"testing"
	"time"

	"redhanded/internal/core"
	"redhanded/internal/obs"
)

// End-to-end executor round-trip attribution: an executor artificially
// delayed by its share hook must produce batch spans whose executor_rtt
// stage covers the delay, with the executor-reported compute time echoed
// over the wire as a subset — the cluster half of the tentpole acceptance
// criterion.
func TestClusterTraceAttributesExecutorRTT(t *testing.T) {
	const delay = 30 * time.Millisecond
	ex, err := StartExecutor("127.0.0.1:0", 2)
	if err != nil {
		t.Fatal(err)
	}
	defer ex.Close()
	ex.mu.Lock()
	ex.shareHook = func() { time.Sleep(delay) }
	ex.mu.Unlock()

	tracer := obs.New(obs.Config{SlowBudget: time.Millisecond})
	data := testDataset(21, 600, 300, 60)
	p := core.NewPipeline(testOptions())
	if _, err := RunCluster(p, NewSliceSource(data), ClusterConfig{
		Executors: []string{ex.Addr()}, BatchSize: 300, TasksPerExecutor: 2,
		Tracer: tracer,
	}); err != nil {
		t.Fatal(err)
	}

	if tracer.Spans() != 4 {
		t.Fatalf("batch spans = %d, want 4 (960 tweets / 300 batch)", tracer.Spans())
	}
	rep := tracer.SlowTraces()
	if len(rep.Traces) == 0 {
		t.Fatalf("no slow batch capture despite %v executor delay and 1ms budget", delay)
	}
	tr := rep.Traces[0]
	if !strings.HasPrefix(tr.ID, "batch-") {
		t.Fatalf("batch span ID = %q, want batch-N", tr.ID)
	}
	stages := map[string]int64{}
	for _, st := range tr.Stages {
		stages[st.Stage] = st.Nanos
	}
	if stages["executor_rtt"] < int64(delay) {
		t.Fatalf("executor_rtt = %v, want >= %v (the injected delay)",
			time.Duration(stages["executor_rtt"]), delay)
	}
	if stages["executor_compute"] <= 0 {
		t.Fatalf("executor did not echo its compute time: %v", stages)
	}
	if stages["executor_compute"] >= stages["executor_rtt"] {
		t.Fatalf("executor_compute %v should be a strict subset of RTT %v (the share hook delay is outside it)",
			time.Duration(stages["executor_compute"]), time.Duration(stages["executor_rtt"]))
	}
	if stages["merge"] <= 0 {
		t.Fatalf("merge stage missing from batch span: %v", stages)
	}
}

// A cluster run with tracing disabled completes with a nil tracer, whose
// span methods are no-ops — the nil-tracer fast path through the driver.
func TestClusterTraceDisabled(t *testing.T) {
	addrs := startCluster(t, 2, 2)
	data := testDataset(22, 600, 300, 60)
	p := core.NewPipeline(testOptions())
	if _, err := RunCluster(p, NewSliceSource(data), ClusterConfig{
		Executors: addrs, BatchSize: 300, TasksPerExecutor: 2,
	}); err != nil {
		t.Fatal(err)
	}
	var nilTracer *obs.Tracer
	if nilTracer.Spans() != 0 {
		t.Fatal("nil tracer recorded spans")
	}
}

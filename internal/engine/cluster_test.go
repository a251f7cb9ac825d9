package engine

import (
	"encoding/gob"
	"math"
	"net"
	"strings"
	"testing"

	"redhanded/internal/core"
)

// startCluster launches n in-process executors on loopback TCP and returns
// their addresses plus a cleanup function.
func startCluster(t *testing.T, n, workers int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		ex, err := StartExecutor("127.0.0.1:0", workers)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ex.Close() })
		addrs[i] = ex.Addr()
	}
	return addrs
}

func TestClusterMatchesLocalQuality(t *testing.T) {
	data := testDataset(11, 5000, 2500, 500)
	local := core.NewPipeline(testOptions())
	if _, err := RunMicroBatch(local, NewSliceSource(data), SparkLocalConfig(4)); err != nil {
		t.Fatal(err)
	}

	addrs := startCluster(t, 3, 4)
	clustered := core.NewPipeline(testOptions())
	stats, err := RunCluster(clustered, NewSliceSource(data), ClusterConfig{
		Executors: addrs, BatchSize: 1000, TasksPerExecutor: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Processed != int64(len(data)) {
		t.Fatalf("cluster processed %d, want %d", stats.Processed, len(data))
	}
	fLocal, fCluster := local.Summary().F1, clustered.Summary().F1
	if math.Abs(fLocal-fCluster) > 0.03 {
		t.Fatalf("cluster F1 %v too far from local %v", fCluster, fLocal)
	}
	if clustered.Summary().Instances != local.Summary().Instances {
		t.Fatalf("instance counts differ: cluster %d local %d",
			clustered.Summary().Instances, local.Summary().Instances)
	}
}

func TestClusterDistributesWork(t *testing.T) {
	exs := make([]*Executor, 3)
	addrs := make([]string, 3)
	for i := range exs {
		ex, err := StartExecutor("127.0.0.1:0", 2)
		if err != nil {
			t.Fatal(err)
		}
		defer ex.Close()
		exs[i] = ex
		addrs[i] = ex.Addr()
	}
	data := testDataset(12, 1200, 600, 120)
	p := core.NewPipeline(testOptions())
	if _, err := RunCluster(p, NewSliceSource(data), ClusterConfig{
		Executors: addrs, BatchSize: 600, TasksPerExecutor: 2,
	}); err != nil {
		t.Fatal(err)
	}
	for i, ex := range exs {
		if ex.Handled() == 0 {
			t.Fatalf("executor %d handled no batches", i)
		}
	}
}

func TestClusterSLR(t *testing.T) {
	addrs := startCluster(t, 2, 2)
	data := testDataset(13, 3000, 1500, 300)
	opts := testOptions()
	opts.Model = core.ModelSLR
	p := core.NewPipeline(opts)
	if _, err := RunCluster(p, NewSliceSource(data), ClusterConfig{
		Executors: addrs, BatchSize: 500, TasksPerExecutor: 2,
	}); err != nil {
		t.Fatal(err)
	}
	if f1 := p.Summary().F1; f1 < 0.75 {
		t.Fatalf("cluster SLR F1 = %v, want >= 0.75", f1)
	}
}

func TestClusterARF(t *testing.T) {
	addrs := startCluster(t, 2, 2)
	data := testDataset(14, 3000, 1500, 300)
	opts := testOptions()
	opts.Model = core.ModelARF
	opts.ARF.EnsembleSize = 5
	p := core.NewPipeline(opts)
	if _, err := RunCluster(p, NewSliceSource(data), ClusterConfig{
		Executors: addrs, BatchSize: 500, TasksPerExecutor: 2,
	}); err != nil {
		t.Fatal(err)
	}
	if f1 := p.Summary().F1; f1 < 0.75 {
		t.Fatalf("cluster ARF F1 = %v, want >= 0.75", f1)
	}
}

func TestClusterRejectsUnknownKind(t *testing.T) {
	ex, err := StartExecutor("127.0.0.1:0", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer ex.Close()
	conn, err := net.Dial("tcp", ex.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	enc, dec := gob.NewEncoder(conn), gob.NewDecoder(conn)
	if err := enc.Encode(&wireMsg{Kind: msgHello, Seq: -1, Proto: clusterProtoVersion, ModelKind: "XGB"}); err != nil {
		t.Fatal(err)
	}
	var ack batchResponse
	if err := dec.Decode(&ack); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ack.Err, "XGB") {
		t.Fatalf("unknown model kind accepted: %+v", ack)
	}
}

func TestClusterNoExecutors(t *testing.T) {
	p := core.NewPipeline(testOptions())
	if _, err := RunCluster(p, NewSliceSource(nil), ClusterConfig{}); err == nil {
		t.Fatalf("empty executor list accepted")
	}
}

func TestClusterExecutorFailureSurfaces(t *testing.T) {
	ex, err := StartExecutor("127.0.0.1:0", 1)
	if err != nil {
		t.Fatal(err)
	}
	addr := ex.Addr()
	ex.Close() // kill before the driver connects
	p := core.NewPipeline(testOptions())
	_, err = RunCluster(p, NewSliceSource(testDataset(15, 100, 50, 10)), ClusterConfig{
		Executors: []string{addr},
	})
	if err == nil {
		t.Fatalf("dead executor not reported")
	}
}

func TestClusterExecutorDiesMidRun(t *testing.T) {
	ex, err := StartExecutor("127.0.0.1:0", 2)
	if err != nil {
		t.Fatal(err)
	}
	data := testDataset(16, 3000, 1500, 300)
	p := core.NewPipeline(testOptions())
	// Kill the executor while the driver is mid-stream.
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, err := RunCluster(p, NewSliceSource(data), ClusterConfig{
			Executors: []string{ex.Addr()}, BatchSize: 200, TasksPerExecutor: 2,
		})
		if err == nil {
			t.Errorf("driver did not surface the executor failure")
		}
	}()
	ex.Close()
	<-done
}

func TestClusterDialUnreachable(t *testing.T) {
	p := core.NewPipeline(testOptions())
	_, err := RunCluster(p, NewSliceSource(nil), ClusterConfig{
		Executors: []string{"127.0.0.1:1"}, // reserved port, nothing listening
	})
	if err == nil {
		t.Fatalf("unreachable executor not reported")
	}
}

// Cluster: the fault-tolerant SparkCluster setup of §V-E as a
// walkthrough. Three executor "nodes" on loopback TCP serve a driver
// streaming the synthetic aggression dataset; one node is taken down
// mid-run, the driver fails its work over to the survivors, and a
// replacement is brought up on the same address for the driver to
// reconnect to and send the full model and vocabulary. Run real
// nodes with cmd/rhexecutor and point cmd/rhdriver at them for the same
// behavior across machines.
//
// Pass -model arf to distribute the paper's best model, the Adaptive
// Random Forest: the forest broadcasts like any model, whole when its
// hash moved, and the drift/warning/replacement counters appear in the
// final report.
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"redhanded"
)

func main() {
	log.SetFlags(0)
	model := flag.String("model", "ht", "streaming model: ht, arf, slr")
	flag.Parse()

	// Three executor nodes (2 task slots each, like small workers).
	var exs [3]*redhanded.Executor
	var addrs []string
	for i := range exs {
		ex, err := redhanded.StartExecutor("127.0.0.1:0", 2)
		if err != nil {
			log.Fatal(err)
		}
		defer ex.Close()
		exs[i] = ex
		addrs = append(addrs, ex.Addr())
	}
	fmt.Printf("cluster: %v\n", addrs)

	data := redhanded.GenerateAggression(redhanded.AggressionConfig{
		Seed: 7, Days: 10, NormalCount: 12000, AbusiveCount: 6000, HatefulCount: 1200,
	})

	// Mid-run, node 1 leaves the cluster (drained shutdown — in-flight
	// work finishes, later batches fail over to the survivors), and a
	// replacement comes up on the same address for the driver's reconnect
	// loop to find and send the full state. The swap is published through
	// a channel so the final report reads it race-free.
	swapped := make(chan *redhanded.Executor, 1)
	go func() {
		defer close(swapped)
		time.Sleep(150 * time.Millisecond)
		addr := exs[1].Addr()
		fmt.Printf("taking down executor %s mid-run...\n", addr)
		exs[1].Close()
		time.Sleep(100 * time.Millisecond)
		repl, err := redhanded.StartExecutor(addr, 2)
		if err != nil {
			fmt.Printf("replacement failed to bind: %v\n", err)
			return
		}
		fmt.Printf("replacement executor up on %s\n", addr)
		swapped <- repl
	}()

	opts := redhanded.DefaultOptions()
	switch *model {
	case "ht":
		opts.Model = redhanded.ModelHT
	case "arf":
		opts.Model = redhanded.ModelARF
	case "slr":
		opts.Model = redhanded.ModelSLR
	default:
		log.Fatalf("unknown model %q (use ht, arf, or slr)", *model)
	}

	p := redhanded.NewPipeline(opts)
	stats, err := redhanded.RunCluster(p, redhanded.NewSliceSource(data), redhanded.ClusterConfig{
		Executors:        addrs,
		BatchSize:        500,
		TasksPerExecutor: 2,
	})
	if err != nil {
		log.Fatal(err)
	}
	if repl, ok := <-swapped; ok {
		exs[1] = repl
		defer repl.Close()
	}

	rep := p.Summary()
	fmt.Printf("\nprocessed %d tweets in %.2fs (%.0f tweets/s) over %d batches\n",
		stats.Processed, stats.Duration.Seconds(), stats.Throughput(), stats.Batches)
	fmt.Printf("broadcast %0.1f KB (keyed broadcasts), data %.1f KB\n",
		float64(stats.BroadcastBytes)/1024, float64(stats.DataBytes)/1024)
	fmt.Printf("resilience: %d failovers, %d reconnects\n", stats.Failovers, stats.Reconnects)
	if opts.Model == redhanded.ModelARF {
		fmt.Printf("drift: %d warnings, %d drifts, %d tree replacements\n",
			stats.Warnings, stats.Drifts, stats.TreeReplacements)
	}
	fmt.Printf("prequential: accuracy=%.4f F1=%.4f over %d labeled tweets\n",
		rep.Accuracy, rep.F1, rep.Instances)
	for i, ex := range exs {
		fmt.Printf("executor %d (%s): %d shares served, vocab %d words\n",
			i, ex.Addr(), ex.Handled(), ex.LastVocabSize())
	}
}

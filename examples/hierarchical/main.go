// Hierarchical: the paper's §IV-B experiment in one program — plus the
// sharded design the paper's scaling question leads to.
//
// Builds a 10,000-node simulated infrastructure (each "compute node" runs
// one virtual data-plane stage, as in the paper) from one declarative
// Topology spec, runs the stress workload — control cycles back-to-back —
// and prints the cycle-latency breakdown and the per-role resource usage
// that Figure 5 and Table III report. The same flag surface also selects
// the flat design and the sharded multi-leader design, because they are
// all one spec:
//
//	go run ./examples/hierarchical                  # 10,000 nodes, fan-in 2500 (4 aggregators)
//	go run ./examples/hierarchical -fanin 500       # 20 aggregators
//	go run ./examples/hierarchical -flat -nodes 2500
//	go run ./examples/hierarchical -shards 4        # 4 concurrent shard leaders
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"time"

	"github.com/dsrhaslab/sdscale"
)

func main() {
	var (
		nodes    = flag.Int("nodes", 10000, "simulated compute nodes (one stage each)")
		fanIn    = flag.Int("fanin", 2500, "stages per aggregator (hierarchical)")
		flat     = flag.Bool("flat", false, "use the flat design instead (requires nodes <= connection limit)")
		shards   = flag.Int("shards", 0, "partition the fleet across this many shard leaders (flat, routed)")
		duration = flag.Duration("duration", 10*time.Second, "stress-workload measurement window")
		jobs     = flag.Int("jobs", 16, "jobs the stages are spread over")
	)
	flag.Parse()

	spec := sdscale.Topology{
		Stages:          *nodes,
		Jobs:            *jobs,
		AggregatorFanIn: *fanIn,
		Net:             sdscale.ExperimentNet(),
	}
	design := "hierarchical"
	switch {
	case *shards > 1:
		spec.AggregatorFanIn = 0
		spec.Shards = *shards
		design = "sharded"
	case *flat:
		spec.AggregatorFanIn = 0
		design = "flat"
	}

	fmt.Printf("building %s control plane over %d nodes", design, *nodes)
	switch design {
	case "hierarchical":
		aggs := (*nodes + *fanIn - 1) / *fanIn
		fmt.Printf(" (%d aggregators, %d nodes each)", aggs, *fanIn)
	case "sharded":
		fmt.Printf(" (%d shard leaders, ~%d nodes each)", *shards, *nodes / *shards)
	}
	fmt.Println(" ...")

	start := time.Now()
	d, err := sdscale.StartTopology(spec)
	if err != nil {
		log.Fatalf("build: %v", err)
	}
	defer d.Close()
	fmt.Printf("built in %v; running stress workload for %v\n\n", time.Since(start).Round(time.Millisecond), *duration)

	ctx, cancel := context.WithTimeout(context.Background(), *duration)
	defer cancel()
	if design == "sharded" {
		// Stress the routing tier: whole-deployment cycles back-to-back,
		// every shard leader cycling concurrently. The recorded breakdown
		// is the slowest shard per cycle — the deployment's wall clock.
		for ctx.Err() == nil {
			if _, err := d.RunControlCycle(ctx); err != nil && ctx.Err() == nil {
				log.Fatalf("cycle: %v", err)
			}
		}
		fmt.Print(d.Recorder().Summarize().String())
		fmt.Printf("\nper-shard fleet (epoch, children):\n")
		for i, cs := range d.Router.Stats().Shards {
			fmt.Printf("  shard %d: epoch %d, %d children, %d quarantined\n",
				i, cs.Epoch, cs.Children, cs.Quarantined)
		}
		fmt.Printf("\n(four shards cut the per-leader fan-out 4x; the routed cycle is the\n")
		fmt.Printf(" slowest shard, so latency tracks the biggest shard, not the fleet)\n")
		return
	}

	uc := sdscale.NewUsageCollector(d)
	uc.Start()
	d.Global.Run(ctx, 0) // stress: cycles back-to-back (paper §III-C)
	global, agg, elapsed := uc.Stop()

	fmt.Print(d.Global.Recorder().Summarize().String())
	fmt.Printf("\nresource usage over %v:\n", elapsed.Round(time.Millisecond))
	fmt.Printf("  global:              CPU %5.2f%%  mem %6.3f GB  tx %6.2f MB/s  rx %6.2f MB/s\n",
		global.CPUPercent, global.MemGB(), global.TxMBps, global.RxMBps)
	if design == "hierarchical" {
		fmt.Printf("  per-aggregator mean: CPU %5.2f%%  mem %6.3f GB  tx %6.2f MB/s  rx %6.2f MB/s\n",
			agg.CPUPercent, agg.MemGB(), agg.TxMBps, agg.RxMBps)
	}
	fmt.Printf("\n(paper, 10,000 nodes: 103 ms with 4 aggregators, under 70 ms with 20;\n")
	fmt.Printf(" absolute values differ with host speed — compare shapes across runs)\n")
}

package experiment

import (
	"context"
	"errors"
	"fmt"

	"github.com/dsrhaslab/sdscale/internal/cluster"
	"github.com/dsrhaslab/sdscale/internal/controller"
)

// FutureCoordinated evaluates the paper's §VI future-work proposal: a flat
// design with multiple coordinating controllers, each orchestrating a
// disjoint set of nodes while maintaining global visibility through per-job
// aggregate exchange. It compares the coordinated design against the
// hierarchical one at the paper's 10,000-node scale with the same number of
// controllers, using interleaved measurement like Fig. 6.
//
// The returned slice holds exactly [hierarchical, coordinated].
func FutureCoordinated(ctx context.Context, o Options) ([]Result, error) {
	o = o.withDefaults()
	nodes := o.scaled(HierNodes)
	// The paper's minimum for 10,000 nodes is 4 controllers (§IV-B), but a
	// coordinated peer additionally holds one connection per fellow peer,
	// so its partition must leave mesh headroom: 5 controllers keep every
	// peer at 2,000 stage connections + 4 peer links, under the limit.
	controllers := 5

	hier, err := cluster.Build(cluster.Config{
		Topology: cluster.Hierarchical, Stages: nodes, Jobs: o.Jobs,
		Aggregators: controllers, Net: *o.Net,
		FanOutMode: controller.FanOutBlocking, // paper fidelity
	})
	if err != nil {
		return nil, fmt.Errorf("experiment coordflat: %w", err)
	}
	defer hier.Close()
	coord, err := cluster.Build(cluster.Config{
		Topology: cluster.Coordinated, Stages: nodes, Jobs: o.Jobs,
		Shards: controllers, Net: *o.Net,
		FanOutMode: controller.FanOutBlocking, // paper fidelity
	})
	if err != nil {
		return nil, fmt.Errorf("experiment coordflat: %w", err)
	}
	defer coord.Close()

	results, err := o.measure(ctx, []*cluster.Cluster{hier, coord})
	if err != nil {
		return nil, fmt.Errorf("experiment coordflat: %w", err)
	}
	results[0].Name = fmt.Sprintf("hier-%d-agg%d", nodes, controllers)
	results[1].Name = fmt.Sprintf("coord-%d-peer%d", nodes, controllers)
	results[1].Aggregators = controllers
	return results, nil
}

// PrintFutureCoordinated renders the comparison.
func PrintFutureCoordinated(o Options, results []Result) {
	o = o.withDefaults()
	if len(results) != 2 {
		return
	}
	o.printf("§VI future work — hierarchical vs coordinated flat at %d nodes, %d controllers\n",
		results[0].Nodes, results[0].Aggregators)
	o.printf("%-14s %12s %12s %12s %12s %8s\n",
		"design", "collect", "compute", "enforce", "total", "cycles")
	for _, r := range results {
		o.printf("%-14s %12s %12s %12s %12s %8d\n",
			r.Topology, ms(r.Latency.Collect.Mean), ms(r.Latency.Compute.Mean),
			ms(r.Latency.Enforce.Mean), ms(r.Latency.Total.Mean), r.Latency.Cycles)
	}
	hier, coord := results[0], results[1]
	o.printf("\nper-controller usage:    CPU%%      TX MB/s    RX MB/s\n")
	o.printf("  aggregator (hier)  %7.3f   %9.3f  %9.3f  (+ global controller above them)\n",
		hier.Aggregator.CPUPercent, hier.Aggregator.TxMBps, hier.Aggregator.RxMBps)
	o.printf("  peer (coordinated) %7.3f   %9.3f  %9.3f  (no global controller at all)\n",
		coord.Aggregator.CPUPercent, coord.Aggregator.TxMBps, coord.Aggregator.RxMBps)
	o.printf("(the coordinated design removes the top-level hop; its cost is the\n")
	o.printf(" all-to-all aggregate exchange, O(peers^2) small messages per cycle)\n\n")
}

// CheckFutureCoordinatedWorks asserts the design's structural claims at any
// scale: it reaches the target node count and needs no global controller.
func CheckFutureCoordinatedWorks(results []Result) error {
	if len(results) != 2 {
		return errors.New("coordflat: want [hierarchical, coordinated] results")
	}
	coord := results[1]
	if coord.Latency.Cycles == 0 {
		return errors.New("coordflat: coordinated design completed no cycles")
	}
	if coord.Global.TxMBps != 0 || coord.Global.CPUPercent != 0 {
		return errors.New("coordflat: coordinated design reported global-controller usage")
	}
	if coord.Aggregator.TxMBps <= 0 {
		return errors.New("coordflat: peers reported no traffic")
	}
	return nil
}

// CheckFutureCoordinatedShape adds the latency claim to
// CheckFutureCoordinatedWorks: without the top-level hop on the critical
// path, coordinated rounds stay within 15% of hierarchical cycles. The
// claim holds when per-host processing dominates (paper scale); at heavily
// reduced scales the concurrent peer cycles contend for the test machine's
// real cores instead, so reduced-scale tests use the structural check only.
func CheckFutureCoordinatedShape(results []Result) error {
	if err := CheckFutureCoordinatedWorks(results); err != nil {
		return err
	}
	hier, coord := results[0], results[1]
	if float64(coord.Latency.Total.Mean) > 1.15*float64(hier.Latency.Total.Mean) {
		return fmt.Errorf("coordflat: coordinated rounds (%v) slower than hierarchical (%v)",
			coord.Latency.Total.Mean, hier.Latency.Total.Mean)
	}
	return nil
}

package experiment

import (
	"context"
	"errors"
	"fmt"

	"github.com/dsrhaslab/sdscale/internal/cluster"
	"github.com/dsrhaslab/sdscale/internal/controller"
	"github.com/dsrhaslab/sdscale/internal/top500"
	"github.com/dsrhaslab/sdscale/internal/transport"
	"github.com/dsrhaslab/sdscale/internal/transport/simnet"
)

// FlatNodeCounts are the paper's Fig. 4 x-axis values.
var FlatNodeCounts = []int{50, 500, 1250, 2500}

// HierAggregatorCounts are the paper's Fig. 5 x-axis values.
var HierAggregatorCounts = []int{4, 5, 10, 20}

// HierNodes is the paper's Fig. 5 cluster size.
const HierNodes = 10000

// CrossoverNodes is the paper's Fig. 6 / Table IV cluster size.
const CrossoverNodes = 2500

// Fig4 measures the flat design's control-cycle latency for an increasing
// number of compute nodes (paper Fig. 4). The same run's resource usage is
// Table II.
func Fig4(ctx context.Context, o Options) ([]Result, error) {
	o = o.withDefaults()
	var results []Result
	for _, n := range FlatNodeCounts {
		nodes := o.scaled(n)
		r, err := o.runOne(ctx, fmt.Sprintf("flat-%d", nodes), cluster.Flat, nodes, 0)
		if err != nil {
			return results, err
		}
		results = append(results, r)
	}
	return results, nil
}

// PrintFig4 renders the Fig. 4 series: average control-cycle latency with
// the per-phase breakdown.
func PrintFig4(o Options, results []Result) {
	o = o.withDefaults()
	o.printf("Fig. 4 — flat design: average control-cycle latency (ms) by compute nodes\n")
	o.printf("%8s %12s %12s %12s %12s %10s %8s\n",
		"nodes", "collect", "compute", "enforce", "total", "rel-std", "cycles")
	for _, r := range results {
		o.printf("%8d %12s %12s %12s %12s %9.1f%% %8d\n",
			r.Nodes, ms(r.Latency.Collect.Mean), ms(r.Latency.Compute.Mean),
			ms(r.Latency.Enforce.Mean), ms(r.Latency.Total.Mean),
			100*r.Latency.RelStddev(), r.Latency.Cycles)
	}
	o.printf("%s", renderLatencyChart(latencyRows(results, func(r Result) string {
		return fmt.Sprintf("%d nodes", r.Nodes)
	}), 0))
	o.printf("(paper: 1.11 ms at 50 nodes rising to 40.40 ms at 2,500 nodes)\n\n")
}

// CheckFig4Shape asserts the figure's qualitative findings: latency grows
// monotonically with node count, the growth is superlinear in total (at
// least 5x from 50 to 2,500 nodes), and enforce costs at least as much as
// collect at the largest scale (paper: "the enforce phase is more
// demanding than the collect phase").
func CheckFig4Shape(results []Result) error {
	if len(results) < 2 {
		return errors.New("fig4: need at least two scales")
	}
	for i := 1; i < len(results); i++ {
		if results[i].Latency.Total.Mean <= results[i-1].Latency.Total.Mean {
			return fmt.Errorf("fig4: latency not increasing: %v nodes %v -> %v nodes %v",
				results[i-1].Nodes, results[i-1].Latency.Total.Mean,
				results[i].Nodes, results[i].Latency.Total.Mean)
		}
	}
	first, last := results[0], results[len(results)-1]
	if ratio := float64(last.Latency.Total.Mean) / float64(first.Latency.Total.Mean); ratio < 5 {
		return fmt.Errorf("fig4: growth %0.1fx from %d to %d nodes, want >= 5x",
			ratio, first.Nodes, last.Nodes)
	}
	if last.Latency.Enforce.Mean < last.Latency.Collect.Mean*9/10 {
		return fmt.Errorf("fig4: enforce (%v) much cheaper than collect (%v) at %d nodes",
			last.Latency.Enforce.Mean, last.Latency.Collect.Mean, last.Nodes)
	}
	return nil
}

// PrintTable2 renders Table II: the flat global controller's resource
// utilization per node count.
func PrintTable2(o Options, results []Result) {
	o = o.withDefaults()
	o.printf("Table II — flat design: global controller resource utilization\n")
	o.printf("%-18s", "Resource")
	for _, r := range results {
		o.printf(" %10d", r.Nodes)
	}
	o.printf("\n")
	row := func(name string, f func(Result) float64) {
		o.printf("%-18s", name)
		for _, r := range results {
			o.printf(" %10.3f", f(r))
		}
		o.printf("\n")
	}
	row("CPU (%)", func(r Result) float64 { return r.Global.CPUPercent })
	row("Memory (GB)", func(r Result) float64 { return r.Global.MemGB() })
	row("Transmitted (MB/s)", func(r Result) float64 { return r.Global.TxMBps })
	row("Received (MB/s)", func(r Result) float64 { return r.Global.RxMBps })
	o.printf("(paper at 2,500 nodes: 10.34%% CPU, 1.18 GB, 9.73/5.36 MB/s)\n\n")
}

// CheckTable2Shape asserts resource usage grows with managed node count.
func CheckTable2Shape(results []Result) error {
	if len(results) < 2 {
		return errors.New("table2: need at least two scales")
	}
	first, last := results[0], results[len(results)-1]
	if last.Global.MemBytes <= first.Global.MemBytes {
		return fmt.Errorf("table2: memory did not grow: %d -> %d bytes",
			first.Global.MemBytes, last.Global.MemBytes)
	}
	if last.Global.TxMBps <= 0 || last.Global.RxMBps <= 0 {
		return errors.New("table2: zero network usage at largest scale")
	}
	return nil
}

// Fig5 measures the hierarchical design at 10,000 nodes for an increasing
// number of aggregators (paper Fig. 5). The same run's resource usage is
// Table III.
func Fig5(ctx context.Context, o Options) ([]Result, error) {
	o = o.withDefaults()
	nodes := o.scaled(HierNodes)
	var results []Result
	for _, aggs := range HierAggregatorCounts {
		r, err := o.runOne(ctx, fmt.Sprintf("hier-%d-agg%d", nodes, aggs), cluster.Hierarchical, nodes, aggs)
		if err != nil {
			return results, err
		}
		results = append(results, r)
	}
	return results, nil
}

// PrintFig5 renders the Fig. 5 series.
func PrintFig5(o Options, results []Result) {
	o = o.withDefaults()
	if len(results) > 0 {
		o.printf("Fig. 5 — hierarchical design at %d nodes: latency (ms) by aggregator count\n", results[0].Nodes)
	}
	o.printf("%8s %12s %12s %12s %12s %10s %8s\n",
		"aggs", "collect", "compute", "enforce", "total", "rel-std", "cycles")
	for _, r := range results {
		o.printf("%8d %12s %12s %12s %12s %9.1f%% %8d\n",
			r.Aggregators, ms(r.Latency.Collect.Mean), ms(r.Latency.Compute.Mean),
			ms(r.Latency.Enforce.Mean), ms(r.Latency.Total.Mean),
			100*r.Latency.RelStddev(), r.Latency.Cycles)
	}
	o.printf("%s", renderLatencyChart(latencyRows(results, func(r Result) string {
		return fmt.Sprintf("%d aggs", r.Aggregators)
	}), 0))
	o.printf("(paper: 103 ms with 4 aggregators falling to <70 ms with 20)\n\n")
}

// CheckFig5Shape asserts the figure's findings: more aggregators reduce
// total latency (comparing the fewest to the most), while the compute
// phase stays roughly constant.
func CheckFig5Shape(results []Result) error {
	if len(results) < 2 {
		return errors.New("fig5: need at least two aggregator counts")
	}
	first, last := results[0], results[len(results)-1]
	if last.Latency.Total.Mean >= first.Latency.Total.Mean {
		return fmt.Errorf("fig5: latency did not drop from %d to %d aggregators: %v -> %v",
			first.Aggregators, last.Aggregators, first.Latency.Total.Mean, last.Latency.Total.Mean)
	}
	// Compute phase should not grow materially with aggregator count: it
	// depends on jobs and total stages, not on the fan-out width.
	if first.Latency.Compute.Mean > 0 {
		ratio := float64(last.Latency.Compute.Mean) / float64(first.Latency.Compute.Mean)
		if ratio > 3 {
			return fmt.Errorf("fig5: compute phase grew %.1fx with aggregator count", ratio)
		}
	}
	return nil
}

// PrintTable3 renders Table III: resource utilization of the global
// controller and the per-aggregator mean, by aggregator count.
func PrintTable3(o Options, results []Result) {
	o = o.withDefaults()
	if len(results) > 0 {
		o.printf("Table III — hierarchical design at %d nodes: resource utilization\n", results[0].Nodes)
	}
	o.printf("%-11s %-18s", "Controller", "Resource")
	for _, r := range results {
		o.printf(" %9d", r.Aggregators)
	}
	o.printf("\n")
	row := func(ctrl, name string, f func(Result) float64) {
		o.printf("%-11s %-18s", ctrl, name)
		for _, r := range results {
			o.printf(" %9.3f", f(r))
		}
		o.printf("\n")
	}
	row("Global", "CPU (%)", func(r Result) float64 { return r.Global.CPUPercent })
	row("Global", "Memory (GB)", func(r Result) float64 { return r.Global.MemGB() })
	row("Global", "Transmitted (MB/s)", func(r Result) float64 { return r.Global.TxMBps })
	row("Global", "Received (MB/s)", func(r Result) float64 { return r.Global.RxMBps })
	row("Aggregator", "CPU (%)", func(r Result) float64 { return r.Aggregator.CPUPercent })
	row("Aggregator", "Memory (GB)", func(r Result) float64 { return r.Aggregator.MemGB() })
	row("Aggregator", "Transmitted (MB/s)", func(r Result) float64 { return r.Aggregator.TxMBps })
	row("Aggregator", "Received (MB/s)", func(r Result) float64 { return r.Aggregator.RxMBps })
	o.printf("(paper: per-aggregator usage falls as aggregators are added; global TX exceeds RX)\n\n")
}

// CheckTable3Shape asserts the table's findings: per-aggregator load falls
// as aggregators are added, and the global controller transmits more than
// it receives (it sends per-stage rules but receives per-job aggregates).
func CheckTable3Shape(results []Result) error {
	if len(results) < 2 {
		return errors.New("table3: need at least two aggregator counts")
	}
	first, last := results[0], results[len(results)-1]
	if last.Aggregator.TxMBps >= first.Aggregator.TxMBps {
		return fmt.Errorf("table3: per-aggregator TX did not fall: %.3f -> %.3f MB/s",
			first.Aggregator.TxMBps, last.Aggregator.TxMBps)
	}
	if last.Aggregator.MemBytes >= first.Aggregator.MemBytes {
		return fmt.Errorf("table3: per-aggregator memory did not fall: %d -> %d",
			first.Aggregator.MemBytes, last.Aggregator.MemBytes)
	}
	for _, r := range results {
		if r.Global.TxMBps <= r.Global.RxMBps {
			return fmt.Errorf("table3: global TX (%.3f) not above RX (%.3f) with %d aggregators",
				r.Global.TxMBps, r.Global.RxMBps, r.Aggregators)
		}
	}
	return nil
}

// Fig6 measures the flat design against a single-aggregator hierarchy at
// 2,500 nodes (paper Fig. 6). The same run's resource usage is Table IV.
// The returned slice holds exactly [flat, hierarchical].
//
// Both deployments are measured with interleaved cycles: the hierarchy's
// penalty is a few percent of the cycle, smaller than the slow drift two
// back-to-back measurement windows can accumulate on a shared host.
func Fig6(ctx context.Context, o Options) ([]Result, error) {
	o = o.withDefaults()
	// The hierarchy's penalty is a few percent of the cycle; median-based
	// comparison over a larger sample keeps the check out of the noise.
	if o.MinCycles < 20 {
		o.MinCycles = 20
	}
	nodes := o.scaled(CrossoverNodes)

	flatCluster, err := cluster.Build(cluster.Config{
		Topology: cluster.Flat, Stages: nodes, Jobs: o.Jobs, Net: *o.Net,
		FanOutMode: controller.FanOutBlocking, // paper fidelity
	})
	if err != nil {
		return nil, fmt.Errorf("experiment fig6: %w", err)
	}
	defer flatCluster.Close()
	hierCluster, err := cluster.Build(cluster.Config{
		Topology: cluster.Hierarchical, Stages: nodes, Jobs: o.Jobs, Aggregators: 1, Net: *o.Net,
		FanOutMode: controller.FanOutBlocking, // paper fidelity
	})
	if err != nil {
		return nil, fmt.Errorf("experiment fig6: %w", err)
	}
	defer hierCluster.Close()

	results, err := o.measure(ctx, []*cluster.Cluster{flatCluster, hierCluster})
	if err != nil {
		return nil, fmt.Errorf("experiment fig6: %w", err)
	}
	results[0].Name = fmt.Sprintf("flat-%d", nodes)
	results[1].Name = fmt.Sprintf("hier-%d-agg1", nodes)
	return results, nil
}

// PrintFig6 renders the Fig. 6 comparison.
func PrintFig6(o Options, results []Result) {
	o = o.withDefaults()
	if len(results) > 0 {
		o.printf("Fig. 6 — flat vs hierarchical (1 aggregator) at %d nodes: latency (ms)\n", results[0].Nodes)
	}
	o.printf("%-14s %12s %12s %12s %12s %8s\n",
		"design", "collect", "compute", "enforce", "total", "cycles")
	for _, r := range results {
		o.printf("%-14s %12s %12s %12s %12s %8d\n",
			r.Topology, ms(r.Latency.Collect.Mean), ms(r.Latency.Compute.Mean),
			ms(r.Latency.Enforce.Mean), ms(r.Latency.Total.Mean), r.Latency.Cycles)
	}
	o.printf("%s", renderLatencyChart(latencyRows(results, func(r Result) string {
		return r.Topology.String()
	}), 0))
	o.printf("(paper: 41 ms flat vs 53 ms hierarchical; compute phase shrinks under the hierarchy)\n\n")
}

// CheckFig6Shape asserts the figure's findings: the hierarchy costs more
// total latency than flat at 2,500 nodes (compared on medians, which GC
// outliers cannot tilt; a 2% tolerance absorbs residual sampling noise),
// the penalty is bounded (under 75%, paper: ~30%), and the global
// controller's median compute phase does not grow.
func CheckFig6Shape(results []Result) error {
	if len(results) != 2 {
		return errors.New("fig6: want [flat, hierarchical] results")
	}
	flat, hier := results[0], results[1]
	if float64(hier.Latency.Total.P50) <= 0.98*float64(flat.Latency.Total.P50) {
		return fmt.Errorf("fig6: hierarchy median (%v) clearly below flat (%v)",
			hier.Latency.Total.P50, flat.Latency.Total.P50)
	}
	if ratio := float64(hier.Latency.Total.P50) / float64(flat.Latency.Total.P50); ratio > 1.75 {
		return fmt.Errorf("fig6: hierarchy penalty %.2fx, want bounded (< 1.75x)", ratio)
	}
	// The compute phase must not grow: offloading aggregation to the
	// aggregator can only reduce the global controller's compute work. At
	// paper scale it shrinks ~4x; a 20% tolerance covers measurement noise
	// at reduced scales where both phases are microseconds. Medians again,
	// so one slow cycle cannot fail the check.
	if float64(hier.Latency.Compute.P50) >= 1.2*float64(flat.Latency.Compute.P50) {
		return fmt.Errorf("fig6: compute phase grew: flat %v vs hier %v",
			flat.Latency.Compute.P50, hier.Latency.Compute.P50)
	}
	return nil
}

// PrintTable4 renders Table IV: per-role resource usage for both designs.
func PrintTable4(o Options, results []Result) {
	o = o.withDefaults()
	if len(results) != 2 {
		return
	}
	flat, hier := results[0], results[1]
	o.printf("Table IV — flat vs hierarchical (1 aggregator) at %d nodes: resource utilization\n", flat.Nodes)
	o.printf("%-11s %-18s %10s %13s\n", "Controller", "Resource", "Flat", "Hierarchical")
	o.printf("%-11s %-18s %10.3f %13.3f\n", "Global", "CPU (%)", flat.Global.CPUPercent, hier.Global.CPUPercent)
	o.printf("%-11s %-18s %10.3f %13.3f\n", "Global", "Memory (GB)", flat.Global.MemGB(), hier.Global.MemGB())
	o.printf("%-11s %-18s %10.3f %13.3f\n", "Global", "Transmitted (MB/s)", flat.Global.TxMBps, hier.Global.TxMBps)
	o.printf("%-11s %-18s %10.3f %13.3f\n", "Global", "Received (MB/s)", flat.Global.RxMBps, hier.Global.RxMBps)
	o.printf("%-11s %-18s %10s %13.3f\n", "Aggregator", "CPU (%)", "-", hier.Aggregator.CPUPercent)
	o.printf("%-11s %-18s %10s %13.3f\n", "Aggregator", "Memory (GB)", "-", hier.Aggregator.MemGB())
	o.printf("%-11s %-18s %10s %13.3f\n", "Aggregator", "Transmitted (MB/s)", "-", hier.Aggregator.TxMBps)
	o.printf("%-11s %-18s %10s %13.3f\n", "Aggregator", "Received (MB/s)", "-", hier.Aggregator.RxMBps)
	o.printf("(paper: global CPU falls 10.34%% -> 1.15%%; the aggregator absorbs the load)\n\n")
}

// CheckTable4Shape asserts the table's findings: moving to the hierarchy
// drains the global controller's CPU and network load into the aggregator.
func CheckTable4Shape(results []Result) error {
	if len(results) != 2 {
		return errors.New("table4: want [flat, hierarchical] results")
	}
	flat, hier := results[0], results[1]
	if hier.Global.CPUPercent >= flat.Global.CPUPercent {
		return fmt.Errorf("table4: global CPU did not fall: %.2f%% -> %.2f%%",
			flat.Global.CPUPercent, hier.Global.CPUPercent)
	}
	if hier.Global.TxMBps >= flat.Global.TxMBps {
		return fmt.Errorf("table4: global TX did not fall: %.3f -> %.3f MB/s",
			flat.Global.TxMBps, hier.Global.TxMBps)
	}
	if hier.Aggregator.CPUPercent <= hier.Global.CPUPercent {
		return fmt.Errorf("table4: aggregator CPU (%.2f%%) not above global (%.2f%%)",
			hier.Aggregator.CPUPercent, hier.Global.CPUPercent)
	}
	return nil
}

// ConnLimitResult reports the §IV-A connection-limit probe.
type ConnLimitResult struct {
	// Limit is the per-host connection limit in force.
	Limit int
	// FlatMax is the largest flat deployment that could be built.
	FlatMax int
	// FlatFailedAt is the node count where the flat build failed.
	FlatFailedAt int
	// HierNodes and HierAggregators describe the hierarchical deployment
	// that succeeded past the limit.
	HierNodes, HierAggregators int
}

// ConnLimit reproduces the observation behind the paper's §IV-A: a flat
// controller cannot exceed the per-node connection limit, while a
// hierarchy with ceil(nodes/limit) aggregators can. To keep the probe
// cheap it runs at a reduced limit and verifies the boundary exactly.
func ConnLimit(ctx context.Context, o Options) (ConnLimitResult, error) {
	o = o.withDefaults()
	limit := 100
	net := *o.Net
	net.MaxConnsPerHost = limit

	res := ConnLimitResult{Limit: limit}

	// At the limit: must build.
	c, err := cluster.Build(cluster.Config{Topology: cluster.Flat, Stages: limit, Jobs: o.Jobs, Net: net})
	if err != nil {
		return res, fmt.Errorf("connlimit: flat at the limit failed: %w", err)
	}
	c.Close()
	res.FlatMax = limit

	// One past the limit: must fail with ErrConnLimit.
	if _, err := cluster.Build(cluster.Config{Topology: cluster.Flat, Stages: limit + 1, Jobs: o.Jobs, Net: net}); err == nil {
		return res, errors.New("connlimit: flat build beyond the limit unexpectedly succeeded")
	} else if !errors.Is(err, transport.ErrConnLimit) {
		return res, fmt.Errorf("connlimit: expected ErrConnLimit, got %v", err)
	}
	res.FlatFailedAt = limit + 1

	// A hierarchy sized by the paper's rule escapes the limit.
	nodes := limit * 4
	aggs := (nodes + limit - 1) / limit
	hc, err := cluster.Build(cluster.Config{
		Topology: cluster.Hierarchical, Stages: nodes, Aggregators: aggs, Jobs: o.Jobs, Net: net,
	})
	if err != nil {
		return res, fmt.Errorf("connlimit: hierarchy failed: %w", err)
	}
	defer hc.Close()
	if _, err := hc.Global.RunCycle(ctx); err != nil {
		return res, fmt.Errorf("connlimit: hierarchy cycle: %w", err)
	}
	res.HierNodes = nodes
	res.HierAggregators = aggs
	return res, nil
}

// PrintConnLimit renders the probe's outcome.
func PrintConnLimit(o Options, r ConnLimitResult) {
	o = o.withDefaults()
	o.printf("§IV-A connection limit probe (limit scaled to %d)\n", r.Limit)
	o.printf("  flat design:          %d nodes OK, fails at %d (ErrConnLimit)\n", r.FlatMax, r.FlatFailedAt)
	o.printf("  hierarchical design:  %d nodes via %d aggregators OK\n", r.HierNodes, r.HierAggregators)
	o.printf("(paper: a Frontera node sustains 2,500 connections; 10,000 nodes need >= 4 aggregators)\n\n")
}

// PrintTable1 renders the paper's Table I with the control-plane sizing
// the study implies for each system.
func PrintTable1(o Options) {
	o = o.withDefaults()
	o.printf("Table I — Top500 systems (June 2024)\n")
	o.printf("%s", top500.Table())
	o.printf("\nControl-plane sizing at the paper's %d-connection limit:\n", simnet.DefaultMaxConns)
	for _, s := range top500.Systems() {
		if top500.FitsFlat(s, simnet.DefaultMaxConns) {
			o.printf("  %-10s flat (single controller)\n", s.Name)
		} else {
			o.printf("  %-10s hierarchical, >= %d aggregators\n", s.Name, top500.MinAggregators(s, simnet.DefaultMaxConns))
		}
	}
	o.printf("\n")
}

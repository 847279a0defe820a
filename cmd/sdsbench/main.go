// Command sdsbench regenerates the paper's tables and figures.
//
// Each experiment builds an in-process simulated deployment (virtual
// data-plane stages over a simulated network with per-host connection
// limits and processing capacities), runs the control plane's stress
// workload, and prints the corresponding table or figure series alongside
// the paper's reference values, followed by a shape verdict.
//
// Usage:
//
//	sdsbench -exp all                 # everything, paper scale
//	sdsbench -exp fig4                # one experiment
//	sdsbench -exp fig5 -scale 0.1     # reduced scale (1,000 nodes)
//	sdsbench -exp fig4 -mincycles 20  # tighter statistics
//
// Experiments: table1, fig4, table2, fig5, table3, fig6, table4,
// connlimit, coordflat, chaos, failover, pipeline, tracebreak, delta,
// shard, elastic, all. Figure/table pairs that share a run (fig4+table2, fig5+table3,
// fig6+table4) are measured once when both are requested. The chaos,
// failover, pipeline, and tracebreak experiments are not from the paper:
// chaos fault-injects the flat deployment (partition flaps on 10% of its
// nodes) and checks the control plane degrades and recovers instead of
// stalling; failover crashes the primary controller mid-run and checks a
// warm standby promotes, re-homes every stage, and fences the old primary;
// pipeline compares the prototype's bounded fan-out against this
// implementation's pipelined async dispatch on otherwise identical flat
// deployments; tracebreak decomposes cycle time (marshal vs. dispatch vs.
// wait, controller and stage side) from per-call spans at 1k/5k/10k nodes
// in both fan-out modes — add -debug 127.0.0.1:8080 to also serve /metrics,
// /debug/pprof and /debug/trace while it runs; delta checks the
// event-driven incremental control mode enforces the same rules as the
// full collect sweep under bursty demand while suppressing the collect
// fan-out once demand quiesces; shard partitions the fleet across four
// concurrently active shard leaders behind the routing tier, crashes one
// leader mid-run, and checks the surviving shards' cycle latency is
// undisturbed while the dead shard recovers through its own quorum
// election with every child and rule intact; elastic doubles a
// hierarchical deployment's fleet mid-run and checks the SLO-driven
// elasticity loop grows the aggregator tier until cycle p90 recovers
// under the objective, then shrinks it back once the load subsides, with
// zero rule loss across every re-homing.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime/debug"
	"strings"
	"time"

	"github.com/dsrhaslab/sdscale/internal/experiment"
)

func main() {
	// Large simulated clusters churn allocations every cycle; a relaxed GC
	// target keeps collector pauses from inflating latency variance (the
	// paper reports <6% relative stddev).
	debug.SetGCPercent(400)
	var (
		exp         = flag.String("exp", "all", "experiment: table1, fig4, table2, fig5, table3, fig6, table4, connlimit, coordflat, chaos, failover, pipeline, tracebreak, delta, shard, elastic, all")
		scale       = flag.Float64("scale", 1.0, "node-count scale factor in (0, 1]")
		minCycles   = flag.Int("mincycles", 5, "minimum measured control cycles per configuration")
		minDuration = flag.Duration("minduration", 2*time.Second, "minimum measurement window per configuration")
		maxDuration = flag.Duration("maxduration", 2*time.Minute, "maximum measurement window per configuration")
		jobs        = flag.Int("jobs", 16, "number of jobs stages are spread over")
		warmup      = flag.Int("warmup", 2, "warmup cycles discarded before measuring")
		csvPath     = flag.String("csv", "", "also write machine-readable results to this CSV file")
		debugAddr   = flag.String("debug", "", "serve /metrics, /debug/pprof and /debug/trace on this loopback address during tracebreak (e.g. 127.0.0.1:8080)")
	)
	flag.Parse()

	opts := experiment.Options{
		Scale:       *scale,
		Warmup:      *warmup,
		MinCycles:   *minCycles,
		MinDuration: *minDuration,
		MaxDuration: *maxDuration,
		Jobs:        *jobs,
		Out:         os.Stdout,
		Debug:       *debugAddr,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	all, err := run(ctx, opts, strings.ToLower(*exp))
	if err != nil {
		fmt.Fprintln(os.Stderr, "sdsbench:", err)
		os.Exit(1)
	}
	if *csvPath != "" && len(all) > 0 {
		data := experiment.ResultsCSVHeader + "\n" + experiment.ResultsCSV(all)
		if err := os.WriteFile(*csvPath, []byte(data), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "sdsbench: write csv:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %d result rows to %s\n", len(all), *csvPath)
	}
}

// run executes the selected experiments, sharing runs between figure/table
// pairs, and returns every measured result for optional CSV export.
func run(ctx context.Context, opts experiment.Options, exp string) ([]experiment.Result, error) {
	var all []experiment.Result
	want := func(names ...string) bool {
		if exp == "all" {
			return true
		}
		for _, n := range names {
			if exp == n {
				return true
			}
		}
		return false
	}
	known := map[string]bool{
		"all": true, "table1": true, "fig4": true, "table2": true,
		"fig5": true, "table3": true, "fig6": true, "table4": true,
		"connlimit": true, "coordflat": true, "chaos": true, "failover": true,
		"pipeline": true, "tracebreak": true, "delta": true, "shard": true,
		"elastic": true,
	}
	if !known[exp] {
		return nil, fmt.Errorf("unknown experiment %q", exp)
	}

	out := opts.Out
	if out == nil {
		out = os.Stdout
	}
	verdict := func(name string, err error) {
		if err != nil {
			fmt.Fprintf(out, "SHAPE CHECK %s: FAILED: %v\n\n", name, err)
		} else {
			fmt.Fprintf(out, "SHAPE CHECK %s: ok\n\n", name)
		}
	}

	if want("table1") {
		experiment.PrintTable1(opts)
	}
	if want("fig4", "table2") {
		results, err := experiment.Fig4(ctx, opts)
		if err != nil {
			return all, err
		}
		all = append(all, results...)
		if want("fig4") {
			experiment.PrintFig4(opts, results)
			verdict("fig4", experiment.CheckFig4Shape(results))
		}
		if want("table2") {
			experiment.PrintTable2(opts, results)
			verdict("table2", experiment.CheckTable2Shape(results))
		}
	}
	if want("fig5", "table3") {
		results, err := experiment.Fig5(ctx, opts)
		if err != nil {
			return all, err
		}
		all = append(all, results...)
		if want("fig5") {
			experiment.PrintFig5(opts, results)
			verdict("fig5", experiment.CheckFig5Shape(results))
		}
		if want("table3") {
			experiment.PrintTable3(opts, results)
			verdict("table3", experiment.CheckTable3Shape(results))
		}
	}
	if want("fig6", "table4") {
		results, err := experiment.Fig6(ctx, opts)
		if err != nil {
			return all, err
		}
		all = append(all, results...)
		if want("fig6") {
			experiment.PrintFig6(opts, results)
			verdict("fig6", experiment.CheckFig6Shape(results))
		}
		if want("table4") {
			experiment.PrintTable4(opts, results)
			verdict("table4", experiment.CheckTable4Shape(results))
		}
	}
	if want("connlimit") {
		r, err := experiment.ConnLimit(ctx, opts)
		if err != nil {
			return all, err
		}
		experiment.PrintConnLimit(opts, r)
	}
	if want("coordflat") {
		results, err := experiment.FutureCoordinated(ctx, opts)
		if err != nil {
			return all, err
		}
		all = append(all, results...)
		experiment.PrintFutureCoordinated(opts, results)
		verdict("coordflat", experiment.CheckFutureCoordinatedShape(results))
	}
	if want("chaos") {
		r, err := experiment.Chaos(ctx, opts)
		if err != nil {
			return all, err
		}
		experiment.PrintChaos(opts, r)
		verdict("chaos", experiment.CheckChaos(r))
	}
	if want("failover") {
		r, err := experiment.Failover(ctx, opts)
		if err != nil {
			return all, err
		}
		experiment.PrintFailover(opts, r)
		verdict("failover", experiment.CheckFailover(r))
	}
	if want("pipeline") {
		r, err := experiment.Pipeline(ctx, opts)
		if err != nil {
			return all, err
		}
		all = append(all, r.Blocking, r.Pipelined)
		experiment.PrintPipeline(opts, r)
		verdict("pipeline", experiment.CheckPipeline(r))
	}
	if want("tracebreak") {
		r, err := experiment.TraceBreak(ctx, opts)
		if err != nil {
			return all, err
		}
		experiment.PrintTraceBreak(opts, r)
		verdict("tracebreak", experiment.CheckTraceBreak(r))
	}
	if want("delta") {
		r, err := experiment.Delta(ctx, opts)
		if err != nil {
			return all, err
		}
		experiment.PrintDelta(opts, r)
		verdict("delta", experiment.CheckDelta(r))
	}
	if want("shard") {
		r, err := experiment.Shard(ctx, opts)
		if err != nil {
			return all, err
		}
		experiment.PrintShard(opts, r)
		verdict("shard", experiment.CheckShard(r))
	}
	if want("elastic") {
		r, err := experiment.Elastic(ctx, opts)
		if err != nil {
			return all, err
		}
		experiment.PrintElastic(opts, r)
		verdict("elastic", experiment.CheckElastic(r))
	}
	return all, nil
}

package experiment

import (
	"context"
	"errors"
	"fmt"

	"github.com/dsrhaslab/sdscale/internal/cluster"
	"github.com/dsrhaslab/sdscale/internal/controller"
	"github.com/dsrhaslab/sdscale/internal/telemetry"
)

// PipelineNodes is the flat scale the pipelined-dispatch comparison runs at:
// the paper's flat-design maximum, where the controller has the most
// children to call.
const PipelineNodes = 2500

// PipelineResult compares the two fan-out dispatch modes on otherwise
// identical flat deployments.
type PipelineResult struct {
	// Blocking and Pipelined are the per-mode measurements.
	Blocking, Pipelined Result
	// BlockingPipe and PipelinedPipe are the controllers' fan-out
	// telemetry: per-phase in-flight peaks and per-cycle allocation counts.
	BlockingPipe, PipelinedPipe telemetry.PipelineSnapshot
}

// Pipeline measures what the asynchronous pipelined dispatch buys over the
// paper prototype's bounded pool: two identical flat deployments —
// one per FanOutMode — run interleaved cycles (like Fig. 6) so host drift
// hits both equally, and the controllers' pipeline telemetry records
// per-cycle allocations and in-flight peaks alongside the usual latency
// breakdown.
func Pipeline(ctx context.Context, o Options) (PipelineResult, error) {
	o = o.withDefaults()
	nodes := o.scaled(PipelineNodes)

	build := func(mode controller.FanOutMode) (*cluster.Cluster, error) {
		return cluster.Build(cluster.Config{
			Topology:   cluster.Flat,
			Stages:     nodes,
			Jobs:       o.Jobs,
			Net:        *o.Net,
			FanOutMode: mode,
		})
	}
	blocking, err := build(controller.FanOutBlocking)
	if err != nil {
		return PipelineResult{}, fmt.Errorf("experiment pipeline: %w", err)
	}
	defer blocking.Close()
	pipelined, err := build(controller.FanOutPipelined)
	if err != nil {
		return PipelineResult{}, fmt.Errorf("experiment pipeline: %w", err)
	}
	defer pipelined.Close()

	results, err := o.measure(ctx, []*cluster.Cluster{blocking, pipelined})
	if err != nil {
		return PipelineResult{}, fmt.Errorf("experiment pipeline: %w", err)
	}
	res := PipelineResult{Blocking: results[0], Pipelined: results[1]}
	res.Blocking.Name = fmt.Sprintf("blocking-%d", nodes)
	res.Pipelined.Name = fmt.Sprintf("pipelined-%d", nodes)
	res.BlockingPipe = blocking.Global.Stats().Pipeline
	res.PipelinedPipe = pipelined.Global.Stats().Pipeline
	return res, nil
}

// PrintPipeline renders the dispatch-mode comparison.
func PrintPipeline(o Options, res PipelineResult) {
	o = o.withDefaults()
	o.printf("pipelined fan-out vs the prototype's bounded pool — flat, %d nodes\n", res.Blocking.Nodes)
	o.printf("%-16s %12s %12s %12s %12s %14s %10s\n",
		"dispatch", "collect", "compute", "enforce", "total", "allocs/cycle", "in-flight")
	for _, row := range []struct {
		name string
		r    Result
		p    telemetry.PipelineSnapshot
	}{
		{"blocking", res.Blocking, res.BlockingPipe},
		{"pipelined", res.Pipelined, res.PipelinedPipe},
	} {
		o.printf("%-16s %12s %12s %12s %12s %14.0f %10d\n",
			row.name, ms(row.r.Latency.Collect.Mean), ms(row.r.Latency.Compute.Mean),
			ms(row.r.Latency.Enforce.Mean), ms(row.r.Latency.Total.Mean),
			row.p.MeanCycleAllocs, row.p.CollectInFlightPeak)
	}
	o.printf("\n(in-flight is the collect phase's peak concurrent calls: the blocking pool\n")
	o.printf(" is capped at its FanOut bound, the pipelined path streams to every child)\n\n")
}

// CheckPipelineWorks asserts the structural claims at any scale: both modes
// complete cycles and the pipelined dispatch actually pipelines — its
// in-flight peak exceeds the blocking pool's bound.
func CheckPipelineWorks(res PipelineResult) error {
	if res.Blocking.Latency.Cycles == 0 || res.Pipelined.Latency.Cycles == 0 {
		return errors.New("pipeline: a mode completed no cycles")
	}
	if res.BlockingPipe.CollectInFlightPeak > int64(controller.DefaultFanOut) {
		return fmt.Errorf("pipeline: blocking mode reached %d in-flight calls, above its %d bound",
			res.BlockingPipe.CollectInFlightPeak, controller.DefaultFanOut)
	}
	if res.PipelinedPipe.CollectInFlightPeak <= int64(controller.DefaultFanOut) {
		return fmt.Errorf("pipeline: pipelined mode peaked at %d in-flight calls, within the blocking bound %d — not pipelining",
			res.PipelinedPipe.CollectInFlightPeak, controller.DefaultFanOut)
	}
	return nil
}

// CheckPipeline adds the performance claim to CheckPipelineWorks: the
// pipelined dispatch completes cycles at least as fast as the bounded pool.
// Both modes run one issue loop over the same cycle arena, so their
// allocations per cycle are alike and not compared.
func CheckPipeline(res PipelineResult) error {
	if err := CheckPipelineWorks(res); err != nil {
		return err
	}
	if res.Pipelined.Latency.Total.Mean > res.Blocking.Latency.Total.Mean {
		return fmt.Errorf("pipeline: pipelined cycles (%v mean) slower than blocking (%v mean)",
			res.Pipelined.Latency.Total.Mean, res.Blocking.Latency.Total.Mean)
	}
	return nil
}

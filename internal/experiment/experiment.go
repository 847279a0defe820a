// Package experiment reproduces the paper's evaluation: one runner per
// table and figure, producing the same rows and series the paper reports,
// plus shape checks that assert the qualitative findings hold.
//
// Runners accept a Scale factor so the full study (up to 10,000 simulated
// compute nodes) can be shrunk for CI and testing.B benchmarks; sdsbench
// runs paper scale by default.
package experiment

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"time"

	"github.com/dsrhaslab/sdscale/internal/cluster"
	"github.com/dsrhaslab/sdscale/internal/controller"
	"github.com/dsrhaslab/sdscale/internal/telemetry"
	"github.com/dsrhaslab/sdscale/internal/transport/simnet"
)

// DefaultNet returns the simulated-network model used by all reproduction
// experiments: a per-host processor with a fixed per-message cost and a
// per-byte cost.
//
// The values are calibrated so the flat design's control-cycle latency
// lands in the paper's tens-of-milliseconds range at 2,500 nodes on a
// single-core runner. Absolute latencies scale with the host machine; the
// shapes (linear growth with child count, enforce > collect, hierarchy
// trade-offs) are what the experiments assert.
func DefaultNet() simnet.Config {
	return simnet.Config{
		ProcTime:    50 * time.Microsecond,
		ProcPerByte: 100 * time.Nanosecond,
	}
}

// Options tunes how experiments run.
type Options struct {
	// Scale multiplies every node count (0 < Scale <= 1). Zero selects 1,
	// the paper's scale.
	Scale float64
	// Warmup is the number of cycles run and discarded before measuring.
	// Zero selects 2.
	Warmup int
	// MinCycles is the minimum number of measured cycles per
	// configuration. Zero selects 5.
	MinCycles int
	// MinDuration is the minimum measurement window per configuration
	// (the paper measures for 5 minutes; we default to 2 seconds and
	// document the difference). Zero selects 2s.
	MinDuration time.Duration
	// MaxDuration caps a configuration's measurement loop. Zero selects
	// 120s.
	MaxDuration time.Duration
	// Jobs is the number of jobs stages are spread over. Zero selects 16.
	Jobs int
	// Net overrides the network model. A zero value selects DefaultNet.
	Net *simnet.Config
	// Out receives the human-readable report. Nil discards it.
	Out io.Writer
	// Debug, when non-empty, serves /metrics, /debug/pprof and /debug/trace
	// on this address for the run's duration (tracebreak only). Must be a
	// loopback address; see trace.DebugOptions.
	Debug string
}

func (o Options) withDefaults() Options {
	if o.Scale <= 0 || o.Scale > 1 {
		o.Scale = 1
	}
	if o.Warmup <= 0 {
		o.Warmup = 2
	}
	if o.MinCycles <= 0 {
		o.MinCycles = 5
	}
	if o.MinDuration <= 0 {
		o.MinDuration = 2 * time.Second
	}
	if o.MaxDuration <= 0 {
		o.MaxDuration = 120 * time.Second
	}
	if o.Jobs <= 0 {
		o.Jobs = 16
	}
	if o.Net == nil {
		net := DefaultNet()
		o.Net = &net
	}
	return o
}

// scaled applies the scale factor to a paper node count, keeping at least
// two nodes.
func (o Options) scaled(n int) int {
	s := int(float64(n) * o.Scale)
	if s < 2 {
		s = 2
	}
	return s
}

func (o Options) printf(format string, args ...any) {
	if o.Out != nil {
		fmt.Fprintf(o.Out, format, args...)
	}
}

// Result is one configuration's measured outcome.
type Result struct {
	// Name labels the configuration (e.g. "flat-2500").
	Name string
	// Topology is the control-plane design.
	Topology cluster.Topology
	// Nodes is the simulated compute-node (stage) count.
	Nodes int
	// Aggregators is the aggregator count (0 for flat).
	Aggregators int
	// Latency summarizes the measured control cycles.
	Latency telemetry.Summary
	// Global and Aggregator report per-role resource usage (Aggregator is
	// the per-aggregator mean, zero for flat).
	Global, Aggregator cluster.RoleUsage
	// Elapsed is the measurement window.
	Elapsed time.Duration
}

// runOne builds a deployment, warms it up, and measures it.
func (o Options) runOne(ctx context.Context, name string, topo cluster.Topology, nodes, aggs int) (Result, error) {
	c, err := cluster.Build(cluster.Config{
		Topology:    topo,
		Stages:      nodes,
		Jobs:        o.Jobs,
		Aggregators: aggs,
		Net:         *o.Net,
		// Paper fidelity: the prototype under study dispatches through a
		// bounded pool (its gRPC thread pool), at most FanOut calls in
		// flight. That bound is what runs a global's aggregators in waves
		// once there are more of them than FanOut (Fig. 5). The pipelined
		// mode lifts it, measured separately by the pipeline experiment.
		FanOutMode: controller.FanOutBlocking,
	})
	if err != nil {
		return Result{}, fmt.Errorf("experiment %s: %w", name, err)
	}
	defer c.Close()
	results, err := o.measure(ctx, []*cluster.Cluster{c})
	if err != nil {
		return Result{}, fmt.Errorf("experiment %s: %w", name, err)
	}
	r := results[0]
	r.Name = name
	return r, nil
}

// measure warms up and measures one or more built clusters. Multiple
// clusters are measured with interleaved cycles so slow drift of the host
// (GC, frequency scaling, background load) hits all of them equally —
// required for paired comparisons like Fig. 6 whose effect size is a few
// percent.
func (o Options) measure(ctx context.Context, clusters []*cluster.Cluster) ([]Result, error) {
	// Start each measurement from a clean heap so one configuration's
	// garbage doesn't tax the next one's cycles.
	runtime.GC()

	for _, c := range clusters {
		for i := 0; i < o.Warmup; i++ {
			if _, err := c.RunControlCycle(ctx); err != nil {
				return nil, fmt.Errorf("warmup: %w", err)
			}
		}
		c.Recorder().Reset()
	}

	collectors := make([]*cluster.UsageCollector, len(clusters))
	for i, c := range clusters {
		collectors[i] = cluster.NewUsageCollector(c)
		collectors[i].Start()
	}
	start := time.Now()
	for {
		for _, c := range clusters {
			if _, err := c.RunControlCycle(ctx); err != nil {
				return nil, err
			}
		}
		elapsed := time.Since(start)
		done := elapsed >= o.MaxDuration
		if !done {
			done = elapsed >= o.MinDuration
			for _, c := range clusters {
				if int(c.Recorder().Cycles()) < o.MinCycles {
					done = false
					break
				}
			}
		}
		if done {
			break
		}
	}

	results := make([]Result, len(clusters))
	for i, c := range clusters {
		global, agg, elapsed := collectors[i].Stop()
		cfg := c.Config()
		results[i] = Result{
			Topology:    cfg.Topology,
			Nodes:       cfg.Stages,
			Aggregators: len(c.Aggregators),
			Latency:     c.Recorder().Summarize(),
			Global:      global,
			Aggregator:  agg,
			Elapsed:     elapsed,
		}
	}
	return results, nil
}

// ms renders a duration in the paper's milliseconds-with-decimals style.
func ms(d time.Duration) string {
	return fmt.Sprintf("%.2f", float64(d)/float64(time.Millisecond))
}

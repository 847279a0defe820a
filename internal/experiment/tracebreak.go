package experiment

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"github.com/dsrhaslab/sdscale/internal/cluster"
	"github.com/dsrhaslab/sdscale/internal/controller"
	"github.com/dsrhaslab/sdscale/internal/telemetry"
	"github.com/dsrhaslab/sdscale/internal/trace"
)

// TraceBreakNodes are the flat scales the cycle-time decomposition runs at:
// the paper's small, medium, and maximum flat deployments.
var TraceBreakNodes = [3]int{1000, 5000, 10000}

// TraceBreakHierNodes is the scale the hierarchical decomposition runs at.
const TraceBreakHierNodes = 10000

// TraceBreakRow is one configuration's span-derived cycle decomposition.
type TraceBreakRow struct {
	// Name labels the configuration (e.g. "flat-1000").
	Name string
	// Topology, Mode, and Nodes identify the configuration.
	Topology cluster.Topology
	Mode     controller.FanOutMode
	Nodes    int
	// Cycles is the measured cycle count; Wall their summed wall time.
	Cycles uint64
	Wall   time.Duration
	// Calls counts controller-side child RPCs (both tiers for the
	// hierarchy); Errors the failed ones.
	Calls, Errors uint64
	// Marshal, Dispatch, and Wait decompose the controller side of every
	// call: frame encoding, connection writes, and time in flight (wire +
	// server). Sums across calls — Wait exceeds Wall when calls overlap.
	Marshal, Dispatch, Wait time.Duration
	// ServerCalls and ServerHandler are the stage-side view: request count
	// and summed handler time.
	ServerCalls   uint64
	ServerHandler time.Duration
	// SharedSends and SharedEncodes come from the controllers'
	// PipelineStats: broadcast calls issued from marshal-once shared frames
	// and the body encodes those frames actually performed. Their ratio is
	// the marshal fan-in — 10,000 children per encode means the broadcast
	// phases marshal once per cycle instead of once per child.
	SharedSends, SharedEncodes uint64
	// Incremental marks the event-driven configuration; DirtyChildren,
	// SuppressedCollects, and SuppressedEnforces are its dirty-set
	// telemetry (the per-child calls the incremental cycles never made —
	// which is why its Calls floor does not apply).
	Incremental                            bool
	DirtyChildren                          int64
	SuppressedCollects, SuppressedEnforces uint64
	// ComputeWorkers is the worker count the controller's last compute
	// phase sharded rule emission across (1 = the serial kernel; 0 when the
	// configuration never ran the flat kernel). Arena mirrors the global
	// controller's cycle-arena counters: reuses tracking takes after warmup
	// is the allocation-free steady state the arena exists for.
	ComputeWorkers int64
	Arena          telemetry.ArenaSnapshot
}

// ArenaReuseFrac is the fraction of slab draws served from retained
// capacity. Zero when the configuration recorded no arena activity.
func (r TraceBreakRow) ArenaReuseFrac() float64 {
	if r.Arena.Takes == 0 {
		return 0
	}
	return float64(r.Arena.Reuses) / float64(r.Arena.Takes)
}

// SharedFanIn is the broadcast marshal fan-in: shared-frame sends per body
// encode. Zero when the configuration issued no shared broadcasts.
func (r TraceBreakRow) SharedFanIn() float64 {
	if r.SharedEncodes == 0 {
		return 0
	}
	return float64(r.SharedSends) / float64(r.SharedEncodes)
}

// MeanCycle is the mean measured cycle time.
func (r TraceBreakRow) MeanCycle() time.Duration {
	if r.Cycles == 0 {
		return 0
	}
	return r.Wall / time.Duration(r.Cycles)
}

// MarshalFrac and DispatchFrac are the fractions of cycle wall time the
// controller spent encoding frames and writing connections (these run on
// the cycle's critical path in both fan-out modes). WaitFactor is summed
// in-flight time over wall time: values above 1 mean calls overlapped —
// the signature of pipelined dispatch.
func (r TraceBreakRow) MarshalFrac() float64  { return frac(r.Marshal, r.Wall) }
func (r TraceBreakRow) DispatchFrac() float64 { return frac(r.Dispatch, r.Wall) }
func (r TraceBreakRow) WaitFactor() float64   { return frac(r.Wait, r.Wall) }

func frac(part, whole time.Duration) float64 {
	if whole <= 0 {
		return 0
	}
	return float64(part) / float64(whole)
}

// TraceBreakResult holds every configuration's decomposition.
type TraceBreakResult struct {
	Rows []TraceBreakRow
}

// TraceBreak measures where control-cycle time goes — marshal vs. dispatch
// vs. wait — from per-call spans, across the flat design at 1k/5k/10k nodes
// and the hierarchy at 10k, in both fan-out modes. Connection limits are
// lifted (the connlimit experiment studies those); everything else uses the
// default network model, whose deterministic per-message and per-byte costs
// make the split reproducible.
func TraceBreak(ctx context.Context, o Options) (TraceBreakResult, error) {
	o = o.withDefaults()

	var debug *trace.DebugServer
	if o.Debug != "" {
		var err error
		debug, err = trace.StartDebug(trace.DebugOptions{Addr: o.Debug})
		if err != nil {
			return TraceBreakResult{}, fmt.Errorf("experiment tracebreak: debug endpoint: %w", err)
		}
		defer debug.Close()
		o.printf("debug endpoint on http://%s (/metrics, /debug/pprof, /debug/trace; up for this run)\n\n", debug.Addr())
	}

	type config struct {
		topo        cluster.Topology
		nodes       int
		mode        controller.FanOutMode
		incremental bool
	}
	var configs []config
	for _, n := range TraceBreakNodes {
		for _, m := range []controller.FanOutMode{controller.FanOutPipelined, controller.FanOutBlocking} {
			configs = append(configs, config{cluster.Flat, o.scaled(n), m, false})
		}
	}
	for _, m := range []controller.FanOutMode{controller.FanOutPipelined, controller.FanOutBlocking} {
		configs = append(configs, config{cluster.Hierarchical, o.scaled(TraceBreakHierNodes), m, false})
	}
	// The event-driven mode at the flat maximum: under the stress workload
	// demand never moves, so its spans show what the dirty-set scan leaves
	// of the cycle once the suppressed calls disappear.
	configs = append(configs, config{cluster.Flat, o.scaled(TraceBreakNodes[2]), controller.FanOutPipelined, true})

	var res TraceBreakResult
	for _, cf := range configs {
		row, err := o.runTraceBreak(ctx, cf.topo, cf.nodes, cf.mode, cf.incremental, debug)
		if err != nil {
			return res, fmt.Errorf("experiment tracebreak: %s-%d/%v: %w", cf.topo, cf.nodes, cf.mode, err)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// runTraceBreak builds one traced deployment, measures it, and folds its
// tracers' totals into a decomposition row.
func (o Options) runTraceBreak(ctx context.Context, topo cluster.Topology, nodes int, mode controller.FanOutMode, incremental bool, debug *trace.DebugServer) (TraceBreakRow, error) {
	net := *o.Net
	// The paper's 2,500-connection host limit would refuse a flat 10k fan-in;
	// lifting it isolates the marshal/dispatch/wait split from connection
	// starvation, which the connlimit experiment studies on its own.
	net.MaxConnsPerHost = -1
	c, err := cluster.Build(cluster.Config{
		Topology:    topo,
		Stages:      nodes,
		Jobs:        o.Jobs,
		Net:         net,
		FanOutMode:  mode,
		Incremental: incremental,
		Tracing:     true,
		// Full-fidelity sampling: the decomposition should be an exact sum
		// over every call, not a scaled estimate, and the experiment accepts
		// the tracing cost it is there to expose.
		TraceSample: 1,
	})
	if err != nil {
		return TraceBreakRow{}, err
	}
	closeCluster := sync.OnceFunc(c.Close)
	defer closeCluster()

	name := fmt.Sprintf("%s-%d", topo, nodes)
	if incremental {
		name += "-incr"
	}
	if debug != nil {
		prefix := fmt.Sprintf("%s-%s/", name, mode)
		c.Trace.Each(func(tn string, tr *trace.Tracer) { debug.AddTracer(prefix+tn, tr) })
		if c.Global != nil {
			// Fixed name: each configuration replaces the last, keeping
			// /metrics free of duplicate controller series.
			debug.AddMetrics("controller", c.Global)
		}
	}

	runtime.GC()
	for i := 0; i < o.Warmup; i++ {
		if _, err := c.RunControlCycle(ctx); err != nil {
			return TraceBreakRow{}, fmt.Errorf("warmup: %w", err)
		}
	}
	c.Recorder().Reset()
	c.Trace.Each(func(_ string, tr *trace.Tracer) { tr.Reset() })

	row := TraceBreakRow{Name: name, Topology: topo, Mode: mode, Nodes: nodes, Incremental: incremental}
	start := time.Now()
	for {
		b, err := c.RunControlCycle(ctx)
		if err != nil {
			return row, err
		}
		row.Cycles++
		row.Wall += b.Total
		elapsed := time.Since(start)
		if elapsed >= o.MaxDuration ||
			(elapsed >= o.MinDuration && row.Cycles >= uint64(o.MinCycles)) {
			break
		}
	}

	// Controller-side spans: the global controller's calls plus, for the
	// hierarchy, every aggregator's calls to its stages.
	fold := func(tr *trace.Tracer) {
		if tr == nil {
			return
		}
		tot := tr.Totals()
		row.Calls += tot.ClientCalls
		row.Errors += tot.ClientErrors
		row.Marshal += tot.ClientMarshal
		row.Dispatch += tot.ClientWrite
		row.Wait += tot.ClientDur - tot.ClientMarshal - tot.ClientWrite
	}
	fold(c.Trace.Global)
	for _, tr := range c.Trace.Mid {
		fold(tr)
	}
	// Shared-frame telemetry from the controllers' pipeline stats. The
	// counters are cumulative (they include warmup), which is fine for a
	// fan-in ratio.
	if c.Global != nil {
		p := c.Global.Stats().Pipeline
		row.SharedSends += p.SharedSends
		row.SharedEncodes += p.SharedEncodes
		row.DirtyChildren = p.DirtyChildren
		row.SuppressedCollects += p.SuppressedCollects
		row.SuppressedEnforces += p.SuppressedEnforces
		row.ComputeWorkers = p.ComputeWorkers
		row.Arena = p.Arena
	}
	for _, a := range c.Aggregators {
		p := a.Stats().Pipeline
		row.SharedSends += p.SharedSends
		row.SharedEncodes += p.SharedEncodes
		row.SuppressedCollects += p.SuppressedCollects
		row.SuppressedEnforces += p.SuppressedEnforces
	}
	if tr := c.Trace.Stages; tr != nil {
		// A stage records its server span after writing the response, so
		// the cycle can end before its last span lands. Closing the
		// cluster waits for every stage's server to drain.
		closeCluster()
		tot := tr.Totals()
		row.ServerCalls = tot.ServerCalls
		row.ServerHandler = tot.ServerHandler
	}
	return row, nil
}

// PrintTraceBreak renders the decomposition table.
func PrintTraceBreak(o Options, res TraceBreakResult) {
	o = o.withDefaults()
	o.printf("control-cycle time decomposition from per-call spans (marshal and dispatch\n")
	o.printf("run on the cycle's critical path; wait× is summed in-flight time over cycle\n")
	o.printf("wall time — above 1 means calls overlap, the point of pipelined dispatch;\n")
	o.printf("bcast×: broadcast sends per body encode — marshal-once fan-in of the\n")
	o.printf("shared-frame phases, the child count when every broadcast shares one encode)\n")
	o.printf("%-20s %-10s %7s %10s %9s %10s %7s %11s %8s\n",
		"config", "dispatch", "cycles", "cycle", "marshal%", "dispatch%", "wait×", "srvh/call", "bcast×")
	for _, r := range res.Rows {
		var h time.Duration
		if r.ServerCalls > 0 {
			h = r.ServerHandler / time.Duration(r.ServerCalls)
		}
		o.printf("%-20s %-10s %7d %8sms %8.2f%% %9.2f%% %7.1f %9sµs %8.0f\n",
			r.Name, r.Mode, r.Cycles, ms(r.MeanCycle()),
			100*r.MarshalFrac(), 100*r.DispatchFrac(), r.WaitFactor(),
			us(h), r.SharedFanIn())
		if r.Incremental {
			o.printf("%-20s dirty-set: %d dirty last cycle, %d collects and %d enforces suppressed across the run\n",
				"", r.DirtyChildren, r.SuppressedCollects, r.SuppressedEnforces)
		}
		if r.Arena.Generation > 0 {
			o.printf("%-20s cycle-arena: gen %d, %d takes (%.0f%% reused, %d grows); compute workers %d\n",
				"", r.Arena.Generation, r.Arena.Takes, 100*r.ArenaReuseFrac(), r.Arena.Grows, r.ComputeWorkers)
		}
	}
	o.printf("\n")
}

// us renders a duration in microseconds with decimals.
func us(d time.Duration) string {
	return fmt.Sprintf("%.1f", float64(d)/float64(time.Microsecond))
}

// CheckTraceBreak asserts the decomposition's structural invariants at any
// scale: every configuration completed cycles, traced the full fan-out on
// both sides, kept its sub-timings consistent, and the pipelined mode
// overlapped at least as much waiting as the blocking pool.
func CheckTraceBreak(res TraceBreakResult) error {
	if len(res.Rows) == 0 {
		return errors.New("tracebreak: no rows")
	}
	waitx := map[string]map[controller.FanOutMode]float64{}
	for _, r := range res.Rows {
		if r.Cycles == 0 {
			return fmt.Errorf("tracebreak %s/%v: no cycles", r.Name, r.Mode)
		}
		if r.Incremental {
			// The event-driven configuration suppresses the very calls the
			// floors below count; its claim is that the suppression telemetry
			// actually moved.
			if r.SuppressedCollects == 0 {
				return fmt.Errorf("tracebreak %s/%v: incremental run suppressed no collects", r.Name, r.Mode)
			}
			continue
		}
		// Collect and enforce each fan out to every stage (the hierarchy
		// adds the global→aggregator tier on top).
		min := 2 * r.Cycles * uint64(r.Nodes)
		if r.Calls < min {
			return fmt.Errorf("tracebreak %s/%v: traced %d controller calls, want >= %d", r.Name, r.Mode, r.Calls, min)
		}
		if r.Errors > 0 {
			return fmt.Errorf("tracebreak %s/%v: %d child calls failed", r.Name, r.Mode, r.Errors)
		}
		if r.Wait < 0 {
			return fmt.Errorf("tracebreak %s/%v: negative wait (marshal %v + dispatch %v exceed call time)", r.Name, r.Mode, r.Marshal, r.Dispatch)
		}
		if r.ServerCalls < min {
			return fmt.Errorf("tracebreak %s/%v: stages traced %d requests, want >= %d", r.Name, r.Mode, r.ServerCalls, min)
		}
		// Every configuration broadcasts at least its collect phase through
		// shared frames; a fan-in near 1 would mean each send re-encoded the
		// body and the marshal-once path is broken.
		if r.SharedSends == 0 {
			return fmt.Errorf("tracebreak %s/%v: no shared-frame broadcasts recorded", r.Name, r.Mode)
		}
		if f := r.SharedFanIn(); f < 2 {
			return fmt.Errorf("tracebreak %s/%v: shared-frame fan-in %.1f — broadcasts are not sharing encodes", r.Name, r.Mode, f)
		}
		// The cycle arena must be live and, after warmup, recycling: a zero
		// reuse count means every cycle re-grew its slabs from scratch.
		if r.Arena.Generation == 0 || r.Arena.Takes == 0 {
			return fmt.Errorf("tracebreak %s/%v: no cycle-arena activity recorded", r.Name, r.Mode)
		}
		if r.Arena.Reuses == 0 {
			return fmt.Errorf("tracebreak %s/%v: cycle arena never reused a slab across %d generations", r.Name, r.Mode, r.Arena.Generation)
		}
		if r.Topology == cluster.Flat && r.ComputeWorkers < 1 {
			return fmt.Errorf("tracebreak %s/%v: flat compute kernel recorded %d workers", r.Name, r.Mode, r.ComputeWorkers)
		}
		if waitx[r.Name] == nil {
			waitx[r.Name] = map[controller.FanOutMode]float64{}
		}
		waitx[r.Name][r.Mode] = r.WaitFactor()
	}
	for name, modes := range waitx {
		p, b := modes[controller.FanOutPipelined], modes[controller.FanOutBlocking]
		// Allow slack: at tiny test scales both modes fit inside the
		// blocking pool's bound and overlap equally.
		if p < 0.9*b {
			return fmt.Errorf("tracebreak %s: pipelined wait overlap %.1fx below blocking %.1fx — not pipelining", name, p, b)
		}
	}
	return nil
}

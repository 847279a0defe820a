package experiment

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"github.com/dsrhaslab/sdscale/internal/cluster"
	"github.com/dsrhaslab/sdscale/internal/controller"
	"github.com/dsrhaslab/sdscale/internal/telemetry"
	"github.com/dsrhaslab/sdscale/internal/transport/simnet"
	"github.com/dsrhaslab/sdscale/internal/wire"
	"github.com/dsrhaslab/sdscale/internal/workload"
)

// DeltaNodes is the flat scale the incremental-control experiment runs at.
const DeltaNodes = 2500

// DeltaRuleTolerance is the acceptable median divergence between the rules
// the full cycle and the incremental cycle enforce under bursty demand,
// measured at mid-phase checkpoints where demand has been stable for longer
// than a cycle — right at a burst edge the two modes legitimately disagree
// for as long as their collect instants are apart. The median (not the max)
// is checked so one checkpoint pushed across an edge by a CPU-starved
// runner cannot fail the experiment.
const DeltaRuleTolerance = 0.05

// deltaCheckpoints is how many mid-phase equivalence checkpoints the bursty
// window takes; the burst edges between them are what exercise the
// push-based reporting path.
const deltaCheckpoints = 5

// Chaos-phase tuning. An incremental controller only probes a quiet child
// when its report cache ages past the collect floor, so fault detection is
// bounded by the floors rather than the cycle period — the floors here are
// tight and the partitions long (1s, against the chaos experiment's 150ms)
// so a flapped child is noticed, quarantined, and readmitted within the
// scenario.
const (
	deltaChaosPushFloor = 150 * time.Millisecond
	deltaChaosIncrFloor = 400 * time.Millisecond
	deltaChaosDownFor   = time.Second
	deltaChaosPeriod    = 1500 * time.Millisecond
	deltaChaosRounds    = 2
	deltaChaosPace      = 25 * time.Millisecond
	deltaReadmitCycles  = 8
)

// DeltaSuppressionFloor is the fraction of per-child collect calls the
// incremental mode must avoid once demand stops moving.
const DeltaSuppressionFloor = 0.90

// DeltaResult reports how the event-driven incremental control mode behaves
// against the paper-faithful full cycle.
type DeltaResult struct {
	// Nodes is the per-cluster stage count.
	Nodes int
	// Pairs is the number of paired cycles run across the bursty window;
	// Checkpoints is how many mid-phase equivalence comparisons it took.
	Pairs, Checkpoints int
	// MedianRuleDiff and MaxRuleDiff summarize the per-checkpoint mean
	// relative difference between the rule limits the two modes enforced.
	MedianRuleDiff, MaxRuleDiff float64
	// QuiescedCycles is the size of the steady-demand measurement window.
	QuiescedCycles int
	// SuppressedCollects is the count of per-child collect calls the
	// incremental controller answered from its report cache during the
	// quiesced window; SuppressionRatio is that count over the
	// QuiescedCycles*Nodes calls the full cycle would have made.
	SuppressedCollects uint64
	SuppressionRatio   float64
	// QuiescedPushes counts the ReportDelta frames stages emitted during
	// the quiesced window (steady demand should produce almost none,
	// heartbeat-floor refreshes aside).
	QuiescedPushes uint64
	// BurstPushes counts the pushes during the bursty window, showing the
	// event-driven path actually carried the demand changes.
	BurstPushes uint64
	// Pipe is the incremental controller's fan-out telemetry at the end of
	// the quiesced window.
	Pipe telemetry.PipelineSnapshot
	// Chaos phase: Flapped is how many stage hosts the fault schedule
	// partitioned and healed; ChaosCycles and ChaosFailed count the
	// incremental cycles run (and errored) while faults were active.
	Flapped, ChaosCycles, ChaosFailed int
	// ChaosFaults is the incremental controller's quarantine telemetry
	// after the fault window.
	ChaosFaults telemetry.FaultSummary
	// ReadmitCycles is how many paced cycles after the final heal the
	// quarantine set took to drain (-1 if it never drained).
	ReadmitCycles int
	// PostChaosSuppression is the collect-suppression ratio re-measured
	// after readmission: the fleet must re-quiesce once the flapped
	// children's forced collects refresh their caches.
	PostChaosSuppression float64
}

// Delta measures the event-driven incremental control mode three ways. First,
// equivalence: a full-cycle cluster and an incremental cluster run paired
// interleaved cycles under bursty demand, and the rule limits they enforce
// are compared pair by pair — push-based delta reports must steer the same
// outcomes the per-cycle collect sweep does. Second, economy: an
// incremental cluster under steady demand counts how many per-child collect
// calls its report cache absorbed once the fleet quiesced. Third,
// dependability: 10% of the quiesced fleet's hosts flap while incremental
// cycles keep running — the collect floor must expose the partitions to the
// breaker, quarantined children must be readmitted after healing, and the
// fleet must re-quiesce.
func Delta(ctx context.Context, o Options) (DeltaResult, error) {
	o = o.withDefaults()
	nodes := o.scaled(DeltaNodes)
	res := DeltaResult{Nodes: nodes}

	// The two clusters must see the same demand at the same wall-clock
	// instant for their rules to be comparable, but Generator time is
	// per-stage (time since that stage started) and building thousands of
	// stages takes seconds — so anchor the burst phases to one shared wall
	// clock instead of each stage's own.
	const burstPhase = 2 * time.Second
	burst := wallClock{
		anchor: time.Now(),
		gen: workload.Bursty{
			On:   burstPhase,
			Off:  burstPhase,
			High: wire.Rates{2000, 200},
			Low:  wire.Rates{200, 20},
		},
	}
	build := func(incremental bool, gen workload.Generator, tweak func(*cluster.Config)) (*cluster.Cluster, error) {
		cfg := cluster.Config{
			Topology:    cluster.Flat,
			Stages:      nodes,
			Jobs:        o.Jobs,
			Net:         *o.Net,
			FanOutMode:  controller.FanOutPipelined,
			Workload:    gen,
			Incremental: incremental,
			// Sample pushes an order of magnitude faster than the burst
			// edges so the event-driven path lags a collect-driven one by
			// at most a cycle or two.
			PushInterval: 10 * time.Millisecond,
		}
		if tweak != nil {
			tweak(&cfg)
		}
		return cluster.Build(cfg)
	}

	// Phase 1: burst equivalence.
	full, err := build(false, burst, nil)
	if err != nil {
		return res, fmt.Errorf("experiment delta: %w", err)
	}
	defer full.Close()
	incr, err := build(true, burst, nil)
	if err != nil {
		return res, fmt.Errorf("experiment delta: %w", err)
	}
	defer incr.Close()

	for i := 0; i < o.Warmup; i++ {
		if _, err := full.RunControlCycle(ctx); err != nil {
			return res, fmt.Errorf("experiment delta: warmup: %w", err)
		}
		if _, err := incr.RunControlCycle(ctx); err != nil {
			return res, fmt.Errorf("experiment delta: warmup: %w", err)
		}
	}

	// Each checkpoint: run paired cycles through the next burst edge, give
	// the pushes it triggers a beat to land, settle both clusters on the
	// new demand, then compare the rules they enforce. The edge in between
	// is what exercises the event-driven path; the comparison itself happens
	// mid-phase, where demand has been stable for longer than a cycle and
	// the two modes must agree.
	pair := func() error {
		if _, err := full.RunControlCycle(ctx); err != nil {
			return err
		}
		if _, err := incr.RunControlCycle(ctx); err != nil {
			return err
		}
		res.Pairs++
		return nil
	}
	var diffs []float64
	for k := 0; k < deltaCheckpoints; k++ {
		edge := burst.nextEdge()
		for time.Now().Before(edge.Add(300 * time.Millisecond)) {
			if err := pair(); err != nil {
				return res, fmt.Errorf("experiment delta: %w", err)
			}
		}
		time.Sleep(50 * time.Millisecond)
		for i := 0; i < 2; i++ {
			if err := pair(); err != nil {
				return res, fmt.Errorf("experiment delta: %w", err)
			}
		}
		diffs = append(diffs, ruleDiff(full, incr))
	}
	res.Checkpoints = len(diffs)
	res.MedianRuleDiff, res.MaxRuleDiff = median(diffs), maxOf(diffs)
	res.BurstPushes = stagePushes(incr)

	// Phase 2: quiesced suppression. A fresh incremental cluster under
	// constant demand: after rules converge and the stages' one-time
	// usage-clamp pushes drain, every collect should be answered from the
	// push-fed report cache.
	quiet, err := build(true, workload.Constant{Rates: wire.Rates{1000, 100}}, func(cfg *cluster.Config) {
		// Chaos-ready tuning (phase 3 reuses this cluster): a fast breaker
		// and tight heartbeat/collect floors bound how long a partitioned
		// child can hide behind the suppressed collect fan-out. Under the
		// fault-free phase 2 none of it changes behavior except the
		// heartbeat pushes, whose cadence the suppression count is
		// insensitive to (a push refreshes the cache, it does not force a
		// collect).
		cfg.PushFloor = deltaChaosPushFloor
		cfg.IncrementalFloor = deltaChaosIncrFloor
		cfg.MaxFailures = chaosMaxFailures
		cfg.ProbeInterval = chaosProbeInterval
		cfg.MaxProbeInterval = chaosMaxProbe
		cfg.CallTimeout = chaosCallTimeout
		cfg.StaleAfter = chaosStaleAfter
	})
	if err != nil {
		return res, fmt.Errorf("experiment delta: %w", err)
	}
	defer quiet.Close()
	for i := 0; i < o.Warmup+1; i++ {
		if _, err := quiet.RunControlCycle(ctx); err != nil {
			return res, fmt.Errorf("experiment delta: warmup: %w", err)
		}
	}
	time.Sleep(100 * time.Millisecond) // let post-enforcement usage pushes land
	for i := 0; i < 2; i++ {
		if _, err := quiet.RunControlCycle(ctx); err != nil {
			return res, fmt.Errorf("experiment delta: warmup: %w", err)
		}
	}

	window := o.MinCycles
	if window < 25 {
		window = 25
	}
	preCollects := quiet.Global.Stats().Pipeline.SuppressedCollects
	prePushes := stagePushes(quiet)
	for i := 0; i < window; i++ {
		if _, err := quiet.RunControlCycle(ctx); err != nil {
			return res, fmt.Errorf("experiment delta: %w", err)
		}
	}
	res.Pipe = quiet.Global.Stats().Pipeline
	res.QuiescedCycles = window
	res.SuppressedCollects = res.Pipe.SuppressedCollects - preCollects
	res.SuppressionRatio = float64(res.SuppressedCollects) / float64(uint64(window)*uint64(nodes))
	res.QuiescedPushes = stagePushes(quiet) - prePushes

	// Phase 3: chaos. Flap 10% of the quiesced fleet's stage hosts with
	// partitions longer than the collect floor, so the suppressed fan-out
	// cannot hide the fault: the stale cache forces a collect, the collect
	// fails, the breaker quarantines, and after the heal the probe path
	// readmits. Cycles keep running paced throughout, as a control loop
	// would.
	res.Flapped = nodes / 10
	if res.Flapped < 1 {
		res.Flapped = 1
	}
	hosts := make([]string, res.Flapped)
	for i := range hosts {
		hosts[i] = fmt.Sprintf("stage-%d", i+1)
	}
	schedule := quiet.Net.Schedule(simnet.FlapSchedule(hosts, 0, deltaChaosDownFor, deltaChaosPeriod, deltaChaosRounds))
	defer schedule.Stop()
	scheduleDone := make(chan struct{})
	go func() { schedule.Wait(); close(scheduleDone) }()
	ticker := time.NewTicker(deltaChaosPace)
	defer ticker.Stop()
faultLoop:
	for {
		if _, err := quiet.RunControlCycle(ctx); err != nil {
			res.ChaosFailed++
		}
		res.ChaosCycles++
		select {
		case <-scheduleDone:
			break faultLoop
		case <-ctx.Done():
			return res, ctx.Err()
		case <-ticker.C:
		}
	}

	// Readmission: paced at the probe-backoff cap so every still-quarantined
	// child has a probe due each cycle.
	res.ReadmitCycles = -1
	for i := 0; i <= deltaReadmitCycles; i++ {
		if quiet.Global.Stats().Quarantined == 0 {
			res.ReadmitCycles = i
			break
		}
		if _, err := quiet.RunControlCycle(ctx); err != nil {
			res.ChaosFailed++
		}
		select {
		case <-ctx.Done():
			return res, ctx.Err()
		case <-time.After(chaosMaxProbe):
		}
	}
	res.ChaosFaults = quiet.Global.Faults().Summarize()

	// Re-quiescence: readmission marks the flapped children dirty with a
	// forced collect, so one settling pass refreshes their caches; after
	// that the suppression ratio must return to the quiesced level.
	for i := 0; i < 3; i++ {
		if _, err := quiet.RunControlCycle(ctx); err != nil {
			return res, fmt.Errorf("experiment delta: post-chaos settle: %w", err)
		}
	}
	post := quiet.Global.Stats().Pipeline.SuppressedCollects
	for i := 0; i < window; i++ {
		if _, err := quiet.RunControlCycle(ctx); err != nil {
			return res, fmt.Errorf("experiment delta: post-chaos: %w", err)
		}
	}
	res.PostChaosSuppression = float64(quiet.Global.Stats().Pipeline.SuppressedCollects-post) /
		float64(uint64(window)*uint64(nodes))
	return res, nil
}

// wallClock adapts a bursty generator to shared wall-clock time: every
// stage in every cluster sees the same demand at the same instant, which
// the paired comparison needs — Generator time is per-stage, and two
// clusters built seconds apart would burst out of phase with each other.
// It gives up the workload package's determinism-in-t contract, which only
// matters for distributed stages reproducing a shape without coordination.
type wallClock struct {
	anchor time.Time
	gen    workload.Bursty
}

// Demand implements workload.Generator.
func (w wallClock) Demand(time.Duration) wire.Rates {
	return w.gen.Demand(time.Since(w.anchor))
}

// nextEdge returns the wall instant of the next burst edge (the On and Off
// phases are equal, so edges are evenly spaced On apart).
func (w wallClock) nextEdge() time.Time {
	pos := time.Since(w.anchor) % w.gen.On
	return time.Now().Add(w.gen.On - pos)
}

// ruleDiff returns the mean relative difference between the rule limits the
// two clusters' stages hold, index-aligned (both clusters are built
// identically, so Stages[i] runs the same workload in each).
func ruleDiff(a, b *cluster.Cluster) float64 {
	var sum float64
	n := len(a.Stages)
	for i := 0; i < n; i++ {
		ra, _ := a.Stages[i].LastRule()
		rb, _ := b.Stages[i].LastRule()
		for c := range ra.Limit {
			hi := ra.Limit[c]
			if rb.Limit[c] > hi {
				hi = rb.Limit[c]
			}
			if hi == 0 {
				continue
			}
			d := ra.Limit[c] - rb.Limit[c]
			if d < 0 {
				d = -d
			}
			sum += d / hi / float64(len(ra.Limit))
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// stagePushes sums the ReportDelta pushes every stage has delivered.
func stagePushes(c *cluster.Cluster) uint64 {
	var total uint64
	for _, v := range c.Stages {
		total += v.Pushes()
	}
	return total
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[len(s)/2]
}

func maxOf(xs []float64) float64 {
	var m float64
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// PrintDelta renders the incremental-control comparison.
func PrintDelta(o Options, res DeltaResult) {
	o = o.withDefaults()
	o.printf("event-driven incremental control vs the full collect sweep — flat, %d nodes\n", res.Nodes)
	o.printf("burst equivalence: %d paired cycles, %d mid-phase checkpoints, enforced-limit divergence median %.2f%% max %.2f%% (tolerance %.0f%%)\n",
		res.Pairs, res.Checkpoints, 100*res.MedianRuleDiff, 100*res.MaxRuleDiff, 100*DeltaRuleTolerance)
	o.printf("burst window pushes: %d ReportDelta frames carried the demand edges\n", res.BurstPushes)
	o.printf("quiesced economy: %d cycles, %d of %d per-child collects answered from the push-fed cache (%.1f%% suppressed)\n",
		res.QuiescedCycles, res.SuppressedCollects, uint64(res.QuiescedCycles)*uint64(res.Nodes), 100*res.SuppressionRatio)
	o.printf("quiesced pushes: %d   dirty children last cycle: %d   suppressed enforces: %d\n",
		res.QuiescedPushes, res.Pipe.DirtyChildren, res.Pipe.SuppressedEnforces)
	o.printf("chaos: %d of %d hosts flapped, %d cycles (%d failed), faults %v\n",
		res.Flapped, res.Nodes, res.ChaosCycles, res.ChaosFailed, res.ChaosFaults)
	if res.ReadmitCycles >= 0 {
		o.printf("chaos recovery: quarantine drained %d cycles after heal, post-chaos collect suppression %.1f%%\n\n",
			res.ReadmitCycles, 100*res.PostChaosSuppression)
	} else {
		o.printf("chaos recovery: QUARANTINE NOT DRAINED, post-chaos collect suppression %.1f%%\n\n",
			100*res.PostChaosSuppression)
	}
}

// CheckDelta asserts the incremental mode's two claims: bursty demand steers
// the same rules through pushes as through per-cycle collects, and steady
// demand suppresses at least DeltaSuppressionFloor of the collect fan-out.
func CheckDelta(res DeltaResult) error {
	if res.Checkpoints == 0 || res.QuiescedCycles == 0 {
		return errors.New("delta: a phase completed no cycles")
	}
	if res.MedianRuleDiff > DeltaRuleTolerance {
		return fmt.Errorf("delta: incremental rules diverge from the full cycle's: median %.2f%% > %.0f%% tolerance",
			100*res.MedianRuleDiff, 100*DeltaRuleTolerance)
	}
	if res.SuppressionRatio < DeltaSuppressionFloor {
		return fmt.Errorf("delta: quiesced collect suppression %.1f%% below the %.0f%% floor",
			100*res.SuppressionRatio, 100*DeltaSuppressionFloor)
	}
	if res.BurstPushes == 0 {
		return errors.New("delta: no ReportDelta pushes during the bursty window — the event-driven path never engaged")
	}
	if res.ChaosFailed > 0 {
		return fmt.Errorf("delta: %d incremental cycles failed during the fault window", res.ChaosFailed)
	}
	if res.ChaosFaults.Quarantines == 0 {
		return errors.New("delta: no child was quarantined — the collect floor never exposed the partition to the breaker")
	}
	if res.ReadmitCycles < 0 {
		return fmt.Errorf("delta: quarantine not drained within %d cycles of heal (%d quarantines, %d readmissions)",
			deltaReadmitCycles, res.ChaosFaults.Quarantines, res.ChaosFaults.Readmissions)
	}
	if res.PostChaosSuppression < DeltaSuppressionFloor {
		return fmt.Errorf("delta: post-chaos collect suppression %.1f%% below the %.0f%% floor — the fleet did not re-quiesce after readmission",
			100*res.PostChaosSuppression, 100*DeltaSuppressionFloor)
	}
	return nil
}

package experiment

import (
	"context"
	"fmt"
	"time"

	"github.com/dsrhaslab/sdscale/internal/cluster"
	"github.com/dsrhaslab/sdscale/internal/controller"
	"github.com/dsrhaslab/sdscale/internal/telemetry"
	"github.com/dsrhaslab/sdscale/internal/transport/simnet"
)

// ChaosNodes is the flat deployment size the chaos scenario runs at. It
// matches the paper's flat-design maximum (§IV-A) so the fault-tolerance
// machinery is exercised at the same scale the latency results come from.
const ChaosNodes = 2500

// ChaosFlapFraction is the share of stage hosts the scenario flaps.
const ChaosFlapFraction = 0.10

// chaos scenario timing. The breaker is tuned fast so the whole scenario
// fits in seconds: a child is quarantined after two failed calls and
// probed every 25ms (backing off to 200ms while the partition holds).
const (
	chaosMaxFailures   = 2
	chaosProbeInterval = 25 * time.Millisecond
	chaosMaxProbe      = 200 * time.Millisecond
	chaosCallTimeout   = 250 * time.Millisecond
	chaosStaleAfter    = 2 * time.Second
	chaosCyclePeriod   = 25 * time.Millisecond // control-loop pacing
	chaosDownFor       = 150 * time.Millisecond
	chaosFlapPeriod    = 400 * time.Millisecond
	chaosFlapRounds    = 2
	chaosReadmitCycles = 5 // readmission budget after the last heal
)

// ChaosResult reports the fault-injection scenario's outcome.
type ChaosResult struct {
	// Nodes is the stage count; Flapped is how many of them were
	// partitioned and healed by the fault schedule.
	Nodes, Flapped int
	// BaselineMean is the mean control-cycle latency before any fault.
	BaselineMean time.Duration
	// Chaos summarizes cycle latency measured while faults were active.
	Chaos telemetry.Summary
	// FailedCycles counts control cycles that returned an error during the
	// fault window (the degraded-mode requirement is that this stays 0).
	FailedCycles int
	// ReadmitCycles is how many paced cycles after the final heal it took
	// for the quarantine set to drain to zero (-1 if it never drained).
	ReadmitCycles int
	// Faults is the controller's fault-handling telemetry.
	Faults telemetry.FaultSummary
	// ShutdownStrikes counts breaker strikes charged by a cycle run under
	// an already-canceled context (must be 0: caller cancellation is not a
	// child failure).
	ShutdownStrikes uint64
}

// Chaos runs the fault-injection scenario: a flat deployment at the flat
// design's maximum scale, with 10% of its stage hosts flapping (partition,
// then heal) on a scripted schedule while control cycles keep running at a
// fixed period. It measures that cycles keep completing in degraded mode,
// that latency stays bounded, and that every flapped child is readmitted
// within a few cycles of its partition healing.
func Chaos(ctx context.Context, o Options) (ChaosResult, error) {
	o = o.withDefaults()
	nodes := o.scaled(ChaosNodes)
	flapped := int(float64(nodes) * ChaosFlapFraction)
	if flapped < 1 {
		flapped = 1
	}

	c, err := cluster.Build(cluster.Config{
		Topology:         cluster.Flat,
		Stages:           nodes,
		Jobs:             o.Jobs,
		Net:              *o.Net,
		CallTimeout:      chaosCallTimeout,
		MaxFailures:      chaosMaxFailures,
		ProbeInterval:    chaosProbeInterval,
		MaxProbeInterval: chaosMaxProbe,
		StaleAfter:       chaosStaleAfter,
	})
	if err != nil {
		return ChaosResult{}, fmt.Errorf("experiment chaos: %w", err)
	}
	defer c.Close()
	g := c.Global

	r := ChaosResult{Nodes: nodes, Flapped: flapped}

	// Baseline: warm up, then measure a few fault-free cycles.
	for i := 0; i < o.Warmup; i++ {
		if _, err := g.RunCycle(ctx); err != nil {
			return r, fmt.Errorf("experiment chaos: warmup: %w", err)
		}
	}
	g.Recorder().Reset()
	for i := 0; i < o.MinCycles; i++ {
		if _, err := g.RunCycle(ctx); err != nil {
			return r, fmt.Errorf("experiment chaos: baseline: %w", err)
		}
	}
	r.BaselineMean = g.Recorder().Summarize().Total.Mean
	g.Recorder().Reset()

	// Fault window: flap the first 10% of stage hosts (staggered partitions
	// with heals chaosDownFor later) while cycles run at a fixed period, as
	// a real control loop would.
	hosts := make([]string, flapped)
	for i := range hosts {
		hosts[i] = fmt.Sprintf("stage-%d", i+1)
	}
	schedule := c.Net.Schedule(simnet.FlapSchedule(hosts, 0, chaosDownFor, chaosFlapPeriod, chaosFlapRounds))
	defer schedule.Stop()

	scheduleDone := make(chan struct{})
	go func() { schedule.Wait(); close(scheduleDone) }()
	ticker := time.NewTicker(chaosCyclePeriod)
	defer ticker.Stop()
faultLoop:
	for {
		if _, err := g.RunCycle(ctx); err != nil {
			r.FailedCycles++
		}
		select {
		case <-scheduleDone:
			break faultLoop
		case <-ctx.Done():
			return r, ctx.Err()
		case <-ticker.C:
		}
	}
	r.Chaos = g.Recorder().Summarize()

	// Readmission: after the last heal, every flapped child must leave
	// quarantine within chaosReadmitCycles cycles. These cycles are paced
	// at the probe-backoff cap, so each one is guaranteed to have a probe
	// due for every still-quarantined child (the probe delay backs off to
	// at most chaosMaxProbe while the partition holds).
	r.ReadmitCycles = -1
	for i := 0; i <= chaosReadmitCycles; i++ {
		if g.Stats().Quarantined == 0 {
			r.ReadmitCycles = i
			break
		}
		if _, err := g.RunCycle(ctx); err != nil {
			r.FailedCycles++
		}
		select {
		case <-ctx.Done():
			return r, ctx.Err()
		case <-time.After(chaosMaxProbe):
		}
	}

	// Clean shutdown mid-cycle: a cycle run under a canceled context must
	// not charge breaker strikes against healthy children.
	before := r.readFaults(g)
	canceled, cancel := context.WithCancel(ctx)
	cancel()
	_, _ = g.RunCycle(canceled)
	after := r.readFaults(g)
	r.ShutdownStrikes = after - before

	r.Faults = g.Faults().Summarize()
	return r, nil
}

// readFaults samples the counters a canceled-context cycle must not move.
func (ChaosResult) readFaults(g *controller.Global) uint64 {
	st := g.Stats()
	return st.CallErrors + st.Faults.Quarantines + st.Evictions
}

// PrintChaos renders the scenario's outcome.
func PrintChaos(o Options, r ChaosResult) {
	o = o.withDefaults()
	o.printf("chaos — flat control plane under partition flaps, %d nodes, %d flapping\n",
		r.Nodes, r.Flapped)
	o.printf("  baseline cycle mean     %s ms\n", ms(r.BaselineMean))
	o.printf("  chaos cycle mean/max    %s / %s ms over %d cycles (%d failed)\n",
		ms(r.Chaos.Total.Mean), ms(r.Chaos.Total.Max), r.Chaos.Cycles, r.FailedCycles)
	o.printf("  faults                  %v\n", r.Faults)
	if r.ReadmitCycles >= 0 {
		o.printf("  readmission             quarantine drained %d cycles after heal\n", r.ReadmitCycles)
	} else {
		o.printf("  readmission             QUARANTINE NOT DRAINED\n")
	}
	o.printf("  canceled-ctx strikes    %d\n\n", r.ShutdownStrikes)
}

// CheckChaos asserts the scenario's dependability claims: no control cycle
// fails while children flap, latency stays bounded (10x the fault-free mean
// plus two call timeouts — generous slack for probe traffic and scheduler
// noise on loaded CI runners), every quarantined child is readmitted within
// chaosReadmitCycles of its partition healing, and caller-side cancellation
// charges no breaker strikes.
func CheckChaos(r ChaosResult) error {
	if r.Chaos.Cycles == 0 {
		return fmt.Errorf("chaos: no cycles completed during the fault window")
	}
	if r.FailedCycles > 0 {
		return fmt.Errorf("chaos: %d control cycles failed during faults", r.FailedCycles)
	}
	if r.Faults.Quarantines == 0 {
		return fmt.Errorf("chaos: no child was ever quarantined — the fault schedule did not bite")
	}
	if r.ReadmitCycles < 0 {
		return fmt.Errorf("chaos: quarantine not drained within %d cycles of heal (%d quarantines, %d readmissions)",
			chaosReadmitCycles, r.Faults.Quarantines, r.Faults.Readmissions)
	}
	if r.Faults.Readmissions != r.Faults.Quarantines {
		return fmt.Errorf("chaos: %d quarantines but %d readmissions", r.Faults.Quarantines, r.Faults.Readmissions)
	}
	if r.Faults.Evictions != 0 {
		return fmt.Errorf("chaos: %d children evicted; flapping must quarantine, not evict", r.Faults.Evictions)
	}
	bound := 10*r.BaselineMean + 2*chaosCallTimeout
	if r.Chaos.Total.Max > bound {
		return fmt.Errorf("chaos: worst cycle %v exceeds bound %v (baseline mean %v)",
			r.Chaos.Total.Max, bound, r.BaselineMean)
	}
	if r.ShutdownStrikes != 0 {
		return fmt.Errorf("chaos: canceled-context cycle charged %d breaker strikes, want 0", r.ShutdownStrikes)
	}
	return nil
}

package experiment

import (
	"context"
	"fmt"
	"sort"
	"time"

	"github.com/dsrhaslab/sdscale/internal/cluster"
	"github.com/dsrhaslab/sdscale/internal/elastic"
)

// ElasticNodes is the hierarchical deployment's initial fleet size and
// ElasticInitialAggs its initial aggregator-tier size. The scenario doubles
// the fleet mid-run to breach the latency SLO, lets the elasticity loop
// grow the tier until latency recovers, then halves the fleet back and lets
// sustained headroom shrink the tier to its floor.
const (
	ElasticNodes       = 240
	ElasticInitialAggs = 2
)

// Elasticity loop tuning for the scenario. The SLO is set adaptively at
// elasticSLOFactor times the measured baseline p90 — between the healthy
// level and the ~2x level the doubled fleet produces — so the scenario's
// claims hold across host speeds. Small windows keep decisions coming every
// few cycles instead of every few hundred.
const (
	elasticSLOFactor = 1.5
	// elasticHeadroom sets the shrink threshold at 0.75x the SLO — above
	// the healthy baseline (1/1.5 = 0.67x), because once the fleet
	// subsides the cycle latency is fleet-dominated, nearly independent of
	// tier size: the subsided p90 lands at the baseline no matter how many
	// aggregators remain, so the threshold must sit above it for the
	// shrink cascade to fire. The recovered post-grow state (~0.9x the
	// SLO under the grown fleet) stays safely inside the hysteresis band.
	elasticHeadroom       = 0.75
	elasticWindow         = 5
	elasticBreachWindows  = 2
	elasticClearWindows   = 2
	elasticMaxAggs        = 6
	elasticBaselineCycles = 3 * elasticWindow
	// elasticPhaseCycles bounds each phase of the driven loop; a phase that
	// does not converge within it fails the scenario.
	elasticPhaseCycles = 200
)

// ElasticResult reports the SLO-elasticity scenario's outcome.
type ElasticResult struct {
	// Nodes and GrownNodes are the fleet sizes before and after the induced
	// load spike.
	Nodes, GrownNodes int
	// BaseAggs, PeakAggs and FinalAggs track the aggregator-tier size:
	// initial, largest while absorbing the spike, and after the load
	// subsided.
	BaseAggs, PeakAggs, FinalAggs int
	// SLO is the adaptive latency objective; BaselineP90 the healthy p90 it
	// was derived from.
	SLO, BaselineP90 time.Duration
	// BreachP90 is the worst decision-window p90 observed after the spike
	// (must exceed the SLO); RecoveredP90 the first post-grow window p90
	// back under it; SubsideP90 the window p90 when the tier finished
	// shrinking.
	BreachP90, RecoveredP90, SubsideP90 time.Duration
	// Grows and Shrinks count the loop's scaling actions; Held its
	// bound-limited decisions.
	Grows, Shrinks, Held uint64
	// Cycles is the total control cycles driven through the loop.
	Cycles int
	// RulesLost counts stages left without a rule at the end (must be
	// zero: every re-homing preserved enforcement state).
	RulesLost int
}

// elasticTier adapts the cluster's aggregator tier to the elasticity loop's
// actuator interface.
type elasticTier struct{ c *cluster.Cluster }

func (a elasticTier) Size() int                        { return a.c.NumAggregators() }
func (a elasticTier) Grow(ctx context.Context) error   { return a.c.GrowAggregators(ctx) }
func (a elasticTier) Shrink(ctx context.Context) error { return a.c.ShrinkAggregators(ctx) }

// nearestRankP90 mirrors the elastic package's quantile (nearest-rank on a
// sorted copy) for the adaptive SLO derivation.
func nearestRankP90(samples []time.Duration) time.Duration {
	s := append([]time.Duration(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	idx := (len(s)*9 + 9) / 10
	return s[idx-1]
}

// Elastic runs the SLO-elasticity scenario: a hierarchical deployment
// starts with a small aggregator tier, the fleet doubles mid-run (per-
// aggregator load doubles, so cycle p90 breaches the SLO), the elasticity
// loop grows the tier until latency recovers, the fleet halves back, and
// sustained headroom shrinks the tier to its floor — with every re-homing
// preserving every stage's enforcement state.
func Elastic(ctx context.Context, o Options) (ElasticResult, error) {
	o = o.withDefaults()
	nodes := o.scaled(ElasticNodes)
	if nodes < 40 {
		// Below this the per-aggregator load difference drowns in
		// scheduling noise and the scenario asserts nothing meaningful.
		nodes = 40
	}

	c, err := cluster.Build(cluster.Config{
		Topology:    cluster.Hierarchical,
		Stages:      nodes,
		Jobs:        o.Jobs,
		Aggregators: ElasticInitialAggs,
		Net:         *o.Net,
	})
	if err != nil {
		return ElasticResult{}, fmt.Errorf("experiment elastic: %w", err)
	}
	defer c.Close()

	r := ElasticResult{
		Nodes: nodes, GrownNodes: 2 * nodes,
		BaseAggs: ElasticInitialAggs, PeakAggs: ElasticInitialAggs,
	}

	for i := 0; i < o.Warmup; i++ {
		if _, err := c.RunControlCycle(ctx); err != nil {
			return r, fmt.Errorf("experiment elastic: warmup: %w", err)
		}
	}

	// Healthy baseline: measure p90 at the initial shape and derive the SLO
	// between it and the doubled-fleet level. The baseline is the lowest
	// p90 of elasticBaselineCycles/elasticWindow windows: a load burst from
	// another process can inflate a window's p90 but never deflate it, and
	// an inflated SLO would let the doubled fleet pass under it.
	samples := make([]time.Duration, 0, elasticWindow)
	for i := 0; i < elasticBaselineCycles; i++ {
		bd, err := c.RunControlCycle(ctx)
		if err != nil {
			return r, fmt.Errorf("experiment elastic: baseline: %w", err)
		}
		if samples = append(samples, bd.Total); len(samples) == elasticWindow {
			if p90 := nearestRankP90(samples); r.BaselineP90 == 0 || p90 < r.BaselineP90 {
				r.BaselineP90 = p90
			}
			samples = samples[:0]
		}
	}
	r.SLO = time.Duration(float64(r.BaselineP90) * elasticSLOFactor)

	el, err := elastic.New(elastic.Config{
		SLO:           r.SLO,
		Window:        elasticWindow,
		BreachWindows: elasticBreachWindows,
		ClearWindows:  elasticClearWindows,
		HeadroomRatio: elasticHeadroom,
		Min:           ElasticInitialAggs,
		Max:           elasticMaxAggs,
	}, elasticTier{c})
	if err != nil {
		return r, fmt.Errorf("experiment elastic: %w", err)
	}

	deadline := time.Now().Add(o.MaxDuration)
	// step drives one control cycle through the loop and updates the
	// running peaks.
	step := func() (elastic.Stats, error) {
		bd, err := c.RunControlCycle(ctx)
		if err != nil {
			return elastic.Stats{}, fmt.Errorf("experiment elastic: cycle: %w", err)
		}
		r.Cycles++
		if _, err := el.Observe(ctx, bd.Total); err != nil {
			return elastic.Stats{}, fmt.Errorf("experiment elastic: actuator: %w", err)
		}
		st := el.Stats()
		if n := c.NumAggregators(); n > r.PeakAggs {
			r.PeakAggs = n
		}
		if st.LastP90 > r.BreachP90 {
			r.BreachP90 = st.LastP90
		}
		return st, nil
	}

	// Phase 1 — induce the breach: double the fleet. Per-aggregator load
	// doubles, window p90 crosses the SLO, and the loop grows the tier.
	// The phase converges when latency is back under the objective on a
	// grown tier.
	if err := c.SetStages(ctx, r.GrownNodes); err != nil {
		return r, fmt.Errorf("experiment elastic: grow fleet: %w", err)
	}
	recovered := false
	for i := 0; i < elasticPhaseCycles && time.Now().Before(deadline); i++ {
		st, err := step()
		if err != nil {
			return r, err
		}
		if st.Grows >= 1 && st.LastP90 > 0 && st.LastP90 <= r.SLO {
			r.RecoveredP90 = st.LastP90
			r.Grows, r.Held = st.Grows, st.Held
			recovered = true
			break
		}
		if ctx.Err() != nil {
			return r, ctx.Err()
		}
	}
	if !recovered {
		st := el.Stats()
		return r, fmt.Errorf("experiment elastic: latency never recovered under the %v SLO (last window p90 %v, %d grows, tier %d)",
			r.SLO, st.LastP90, st.Grows, c.NumAggregators())
	}

	// Phase 2 — subside: halve the fleet back. Sustained headroom must
	// shrink the tier to its floor (hysteresis holds it there).
	if err := c.SetStages(ctx, nodes); err != nil {
		return r, fmt.Errorf("experiment elastic: shrink fleet: %w", err)
	}
	settled := false
	for i := 0; i < elasticPhaseCycles && time.Now().Before(deadline); i++ {
		st, err := step()
		if err != nil {
			return r, err
		}
		if st.Shrinks >= 1 && c.NumAggregators() == ElasticInitialAggs {
			r.SubsideP90 = st.LastP90
			r.Shrinks = st.Shrinks
			settled = true
			break
		}
		if ctx.Err() != nil {
			return r, ctx.Err()
		}
	}
	if !settled {
		st := el.Stats()
		return r, fmt.Errorf("experiment elastic: tier never shrank back to %d after the load subsided (tier %d, %d shrinks, last window p90 %v)",
			ElasticInitialAggs, c.NumAggregators(), st.Shrinks, st.LastP90)
	}
	r.FinalAggs = c.NumAggregators()

	// One more cycle on the settled shape, then the zero-rule-loss check:
	// every stage — original, grown, and survivor of two re-homings — must
	// hold an enforced rule.
	if _, err := c.RunControlCycle(ctx); err != nil {
		return r, fmt.Errorf("experiment elastic: settled cycle: %w", err)
	}
	r.Cycles++
	for _, v := range c.Stages {
		if _, ok := v.LastRule(); !ok {
			r.RulesLost++
		}
	}
	return r, nil
}

// PrintElastic renders the scenario's outcome.
func PrintElastic(o Options, r ElasticResult) {
	o = o.withDefaults()
	o.printf("elastic — hierarchical deployment, fleet %d -> %d -> %d nodes, SLO-driven aggregator tier\n",
		r.Nodes, r.GrownNodes, r.Nodes)
	o.printf("  slo                     p90 <= %v (1.5x the %v healthy baseline)\n",
		r.SLO.Round(time.Microsecond), r.BaselineP90.Round(time.Microsecond))
	o.printf("  tier                    %d -> %d (spike) -> %d (settled), %d grows, %d shrinks, %d held\n",
		r.BaseAggs, r.PeakAggs, r.FinalAggs, r.Grows, r.Shrinks, r.Held)
	o.printf("  window p90              breach %v -> recovered %v -> subsided %v\n",
		r.BreachP90.Round(time.Microsecond), r.RecoveredP90.Round(time.Microsecond), r.SubsideP90.Round(time.Microsecond))
	o.printf("  driven cycles           %d\n", r.Cycles)
	o.printf("  rule consistency        %d stages without a rule (zero rule loss across re-homings)\n\n", r.RulesLost)
}

// CheckElastic asserts the scenario's claims: the spike breached the SLO
// and the tier grew in response, latency recovered under the objective on
// the grown tier, sustained headroom shrank the tier back to its floor,
// and no stage lost its enforcement state across any re-homing.
func CheckElastic(r ElasticResult) error {
	if r.BreachP90 <= r.SLO {
		return fmt.Errorf("elastic: doubled fleet never breached the SLO (worst window p90 %v vs %v)", r.BreachP90, r.SLO)
	}
	if r.PeakAggs <= r.BaseAggs {
		return fmt.Errorf("elastic: tier never grew past %d aggregators under the breach", r.BaseAggs)
	}
	if r.Grows < 1 {
		return fmt.Errorf("elastic: no grow actions recorded")
	}
	if r.RecoveredP90 <= 0 || r.RecoveredP90 > r.SLO {
		return fmt.Errorf("elastic: latency did not recover under the SLO (window p90 %v vs %v)", r.RecoveredP90, r.SLO)
	}
	if r.Shrinks < 1 {
		return fmt.Errorf("elastic: no shrink actions after the load subsided")
	}
	if r.FinalAggs != r.BaseAggs {
		return fmt.Errorf("elastic: tier settled at %d aggregators, want the %d floor", r.FinalAggs, r.BaseAggs)
	}
	if r.RulesLost != 0 {
		return fmt.Errorf("elastic: %d stages lost their rule across the re-homings", r.RulesLost)
	}
	return nil
}

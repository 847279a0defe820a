package cluster

import (
	"context"
	"fmt"

	"github.com/dsrhaslab/sdscale/internal/controller"
	"github.com/dsrhaslab/sdscale/internal/shard"
)

// This file is the live-reshaping surface of a built deployment: growing
// and shrinking the aggregator tier (the SLO elasticity loop's actuator),
// resizing the stage fleet and the shard set, and re-tuning QoS weights
// (config hot reload). Each exported mutator holds the cluster's mutation
// lock, so they serialize against each other and against NumAggregators
// readers. None of them run concurrently with RunControlCycle — the sdsctl
// daemon applies them at cycle boundaries, and tests follow the same
// discipline. The underlying child state they touch is still lock-guarded
// (see controller/elastic.go and the router's atomic state), so a misuse
// shows up as a momentary inconsistency rather than a torn read.

// NumAggregators returns the aggregator-tier size (Hierarchical only).
func (c *Cluster) NumAggregators() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.Aggregators)
}

// Reconfigure applies a configuration reload's live changes as one
// mutation: every job weight in weights, then a shard resize to shards and
// a fleet resize to stages (each skipped when zero), under one hold of the
// mutation lock so no other mutator interleaves.
func (c *Cluster) Reconfigure(ctx context.Context, weights map[uint64]float64, shards, stages int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for id, w := range weights {
		c.setJobWeight(id, w)
	}
	if shards != 0 && shards != c.Router.NumShards() {
		if err := c.resizeShards(ctx, shards); err != nil {
			return err
		}
	}
	if stages != 0 {
		return c.setStages(ctx, stages)
	}
	return nil
}

// aggregatorConfig assembles the configuration for the aggregator at
// ordinal seq, mirroring the builder so grown aggregators are
// indistinguishable from built ones.
func (c *Cluster) aggregatorConfig(seq int, role Roles) controller.AggregatorConfig {
	cfg := c.cfg
	return controller.AggregatorConfig{
		ID:               uint64(1_000_000 + seq),
		Network:          c.Net.Host(fmt.Sprintf("agg-%d", seq+1)),
		FanOut:           cfg.FanOut,
		FanOutMode:       cfg.FanOutMode,
		CallTimeout:      cfg.CallTimeout,
		ForwardRaw:       cfg.ForwardRaw,
		Incremental:      cfg.Incremental,
		IncrementalFloor: cfg.IncrementalFloor,
		MaxFailures:      cfg.MaxFailures,
		ProbeInterval:    cfg.ProbeInterval,
		MaxProbeInterval: cfg.MaxProbeInterval,
		StaleAfter:       cfg.StaleAfter,
		Meter:            role.Meter,
		CPU:              role.CPU,
	}
}

// GrowAggregators adds one aggregator to the tier and re-homes stages onto
// it until the tier is balanced: stages move from the most loaded
// aggregators (destination adopts, source releases, the global controller's
// stage list for both is re-declared), so the per-aggregator fan-in — the
// quantity that drives collect latency — drops by roughly 1/(n+1). The new
// aggregator adopts the global controller's leadership epoch on its first
// cycle, exactly like a re-homed child.
func (c *Cluster) GrowAggregators(ctx context.Context) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.Global == nil || len(c.Aggregators) == 0 {
		return fmt.Errorf("cluster: no aggregator tier to grow")
	}
	seq := c.aggSeq
	role := newRoles()
	acfg := c.aggregatorConfig(seq, role)
	if c.Trace != nil {
		tr := c.newTracer()
		c.Trace.Mid = append(c.Trace.Mid, tr)
		acfg.Tracer = tr
	}
	agg, err := controller.StartAggregator(acfg)
	if err != nil {
		return fmt.Errorf("cluster: grow aggregator %d: %w", seq, err)
	}
	c.aggSeq++

	// Re-home stages from the most loaded aggregators until the new one
	// carries its balanced share.
	total := 0
	for _, a := range c.Aggregators {
		total += a.NumStages()
	}
	per := (total + len(c.Aggregators)) / (len(c.Aggregators) + 1) // ceil over the new tier size
	touched := make(map[int]bool)
	for agg.NumStages() < per {
		src, srcIdx := c.mostLoadedAggregator()
		if src == nil || src.NumStages() <= per {
			break // nothing left to take without unbalancing a donor
		}
		infos := src.Stages()
		info := infos[len(infos)-1]
		if err := agg.AddStage(ctx, info); err != nil {
			return fmt.Errorf("cluster: re-home stage %d: %w", info.ID, err)
		}
		src.RemoveStage(info.ID)
		touched[srcIdx] = true
	}
	for idx := range touched {
		a := c.Aggregators[idx]
		c.Global.SetAggregatorStages(a.ID(), a.Stages())
	}
	if err := c.Global.AddAggregator(ctx, agg.ID(), agg.Addr(), agg.Stages()); err != nil {
		return fmt.Errorf("cluster: attach grown aggregator: %w", err)
	}
	c.Aggregators = append(c.Aggregators, agg)
	c.AggregatorRoles = append(c.AggregatorRoles, role)
	return nil
}

// ShrinkAggregators removes the most recently added aggregator, re-homing
// its stages round-robin across the survivors before evicting and closing
// it. The tier never shrinks below one.
func (c *Cluster) ShrinkAggregators(ctx context.Context) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.Global == nil || len(c.Aggregators) == 0 {
		return fmt.Errorf("cluster: no aggregator tier to shrink")
	}
	if len(c.Aggregators) == 1 {
		return fmt.Errorf("cluster: cannot shrink below one aggregator")
	}
	last := len(c.Aggregators) - 1
	victim := c.Aggregators[last]
	survivors := c.Aggregators[:last]

	for i, info := range victim.Stages() {
		dst := survivors[i%len(survivors)]
		if err := dst.AddStage(ctx, info); err != nil {
			return fmt.Errorf("cluster: re-home stage %d: %w", info.ID, err)
		}
		victim.RemoveStage(info.ID)
	}
	for _, a := range survivors {
		c.Global.SetAggregatorStages(a.ID(), a.Stages())
	}
	c.Global.RemoveChild(victim.ID())
	victim.Close()
	c.Aggregators = survivors
	c.AggregatorRoles = c.AggregatorRoles[:last]
	if c.Trace != nil && len(c.Trace.Mid) > last {
		c.Trace.Mid = c.Trace.Mid[:last]
	}
	return nil
}

// mostLoadedAggregator returns the aggregator managing the most stages.
func (c *Cluster) mostLoadedAggregator() (*controller.Aggregator, int) {
	var best *controller.Aggregator
	bestIdx := -1
	for i, a := range c.Aggregators {
		if best == nil || a.NumStages() > best.NumStages() {
			best, bestIdx = a, i
		}
	}
	return best, bestIdx
}

// leastLoadedAggregator returns the aggregator managing the fewest stages.
func (c *Cluster) leastLoadedAggregator() *controller.Aggregator {
	var best *controller.Aggregator
	for _, a := range c.Aggregators {
		if best == nil || a.NumStages() < best.NumStages() {
			best = a
		}
	}
	return best
}

// SetStages grows or shrinks the stage fleet to target: grown stages start
// on fresh hosts with fresh IDs and attach to the right owner (the
// least-loaded aggregator, or the placement shard's leader); shrunken
// stages release from their owner and close, newest first. Requires a
// standbys-free deployment — with warm standbys the fleet registers
// dynamically and the builder's parent lists would go stale.
func (c *Cluster) SetStages(ctx context.Context, target int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.setStages(ctx, target)
}

func (c *Cluster) setStages(ctx context.Context, target int) error {
	switch {
	case target < 1:
		return fmt.Errorf("cluster: cannot shrink the fleet below one stage")
	case c.cfg.Standbys > 0:
		return fmt.Errorf("cluster: fleet resize requires standbys = 0")
	case target < c.Router.NumShards():
		return fmt.Errorf("cluster: cannot shrink the fleet below the %d live shard(s)", c.Router.NumShards())
	}

	for len(c.Stages) < target {
		v, err := c.startStage(nil)
		if err != nil {
			return err
		}
		if len(c.Aggregators) > 0 {
			agg := c.leastLoadedAggregator()
			if err = agg.AddStage(ctx, v.Info()); err == nil {
				c.Global.SetAggregatorStages(agg.ID(), agg.Stages())
			}
		} else {
			err = c.Router.Group(c.Router.Place(v.Info().ID)).Leader().AddStage(ctx, v.Info())
		}
		if err != nil {
			v.Close()
			return fmt.Errorf("cluster: attach stage %d: %w", v.Info().ID, err)
		}
		c.Stages = append(c.Stages, v)
	}

	for len(c.Stages) > target {
		last := len(c.Stages) - 1
		v := c.Stages[last]
		id := v.Info().ID
		if len(c.Aggregators) > 0 {
			for _, a := range c.Aggregators {
				if a.RemoveStage(id) {
					c.Global.SetAggregatorStages(a.ID(), a.Stages())
					break
				}
			}
		} else {
			_, leader := c.Router.Route(id)
			leader.RemoveChild(id)
		}
		v.Close()
		c.Stages = c.Stages[:last]
	}
	return nil
}

// resizeShards changes the shard-leader count to target and rebalances the
// fleet onto the new consistent-hash ring. Growing starts fresh leaders
// and drains their ring share onto them; shrinking installs the smaller
// ring first (so nothing routes to the doomed shards), drains each doomed
// shard's children to their new owners, then evicts and closes it. Per-
// shard capacity is re-split proportionally to the settled populations.
// Requires a standbys-free flat deployment on the default placement.
func (c *Cluster) resizeShards(ctx context.Context, target int) error {
	cfg := c.cfg
	switch {
	case cfg.Topology != Flat:
		return fmt.Errorf("cluster: shard resize requires the flat topology, not %v", cfg.Topology)
	case cfg.Standbys > 0:
		return fmt.Errorf("cluster: shard resize requires standbys = 0")
	case cfg.Placement != nil:
		return fmt.Errorf("cluster: shard resize requires the default consistent-hash placement")
	case target < 1:
		return fmt.Errorf("cluster: need at least one shard, got %d", target)
	case target > len(c.Stages):
		return fmt.Errorf("cluster: %d stages cannot populate %d shards", len(c.Stages), target)
	}
	cur := c.Router.NumShards()
	if target == cur {
		return nil
	}

	groups := make([]*shard.Group, cur)
	for i := range groups {
		groups[i] = c.Router.Group(i)
	}

	if target > cur {
		for s := cur; s < target; s++ {
			g, err := c.startGroup(s, 0)
			if err != nil {
				return err
			}
			groups = append(groups, g)
		}
		c.Router.SetGroups(groups, shard.Config{VirtualNodes: cfg.VirtualNodes})
		if _, err := c.Router.Rebalance(ctx); err != nil {
			return fmt.Errorf("cluster: rebalance onto %d shards: %w", target, err)
		}
	} else {
		victims := groups[target:]
		c.Router.SetGroups(groups[:target], shard.Config{VirtualNodes: cfg.VirtualNodes})
		for i, v := range victims {
			if _, err := c.Router.Drain(ctx, v); err != nil {
				return fmt.Errorf("cluster: drain shard %d: %w", target+i, err)
			}
			v.Leader().Close()
		}
		c.Globals = c.Globals[:target]
		c.ShardRoles = c.ShardRoles[:target]
		if c.Trace != nil && len(c.Trace.Mid) > target {
			c.Trace.Mid = c.Trace.Mid[:target]
		}
	}

	// Re-split the administrator capacity over the settled populations.
	total := len(c.Stages)
	for i := 0; i < c.Router.NumShards(); i++ {
		g := c.Router.Group(i).Leader()
		g.SetCapacity(cfg.Capacity.Scale(float64(g.NumChildren()) / float64(total)))
	}
	return nil
}

// setJobWeight re-tunes one job's QoS weight on every shard's effective
// leader (its standbys mirror it from the leader's next state sync); the
// next control cycle allocates with it.
func (c *Cluster) setJobWeight(jobID uint64, weight float64) {
	for i := 0; i < c.Router.NumShards(); i++ {
		c.Router.Group(i).Leader().SetJobWeight(jobID, weight)
	}
}

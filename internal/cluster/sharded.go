package cluster

import (
	"context"
	"fmt"
	"time"

	"github.com/dsrhaslab/sdscale/internal/controller"
	"github.com/dsrhaslab/sdscale/internal/monitor"
	"github.com/dsrhaslab/sdscale/internal/shard"
	"github.com/dsrhaslab/sdscale/internal/stage"
	"github.com/dsrhaslab/sdscale/internal/transport"
)

// ShardHost returns the simulated-network host name of shard s's leader.
func ShardHost(s int) string { return fmt.Sprintf("shard-%d", s) }

// ShardStandbyHost returns the host name of shard s's i-th (0-based) warm
// standby.
func ShardStandbyHost(s, i int) string { return fmt.Sprintf("shard-%d-standby-%d", s, i) }

// validateSharded rejects the configuration combinations the sharded
// builder cannot honour. It is the build-time half of the façade's
// Topology.Validate: anything that reaches the builder invalid fails here
// too, so direct cluster users get the same errors.
func validateSharded(cfg Config) error {
	if cfg.Shards < 0 {
		return fmt.Errorf("cluster: Shards must be >= 1, got %d", cfg.Shards)
	}
	if cfg.Shards <= 1 {
		return nil
	}
	if cfg.Topology != Flat {
		return fmt.Errorf("cluster: sharding is only supported for the flat topology, not %v", cfg.Topology)
	}
	if cfg.Placement != nil && cfg.Standbys > 0 {
		// A custom placement function is opaque: the builder cannot prove
		// it is stable, so the per-shard parent lists that standby
		// re-homing depends on could disagree with where the function
		// sends a re-registering child. Refuse loudly instead of silently
		// dropping the standbys.
		return fmt.Errorf("cluster: Standbys requires the default consistent-hash placement; a custom Placement cannot guarantee the per-shard parent lists re-homing depends on")
	}
	return nil
}

// buildSharded wires N concurrently-active flat control planes over one
// fleet: every shard gets its own leader (plus optional quorum standbys and
// write-ahead store), children are placed by consistent hashing (or the
// custom Placement), per-shard capacity is the fleet capacity scaled by
// the shard's share of the stages, and a shard.Router is installed as the
// routing tier. Without standbys the builder attaches each stage to its
// shard directly; with standbys stages register dynamically through their
// shard's parent address list — the same path re-homing uses after a
// failover, and the path a handoff re-uses for a shard move.
func (c *Cluster) buildSharded() error {
	cfg := c.cfg
	ctx := context.Background()

	place := cfg.Placement
	if place == nil {
		ring := shard.NewRing(cfg.Shards, cfg.VirtualNodes)
		place = ring.Place
	}

	// Place the whole fleet first: per-shard capacity and the
	// registration waits need the shard populations.
	owner := make([]int, cfg.Stages)
	counts := make([]int, cfg.Shards)
	for i := 0; i < cfg.Stages; i++ {
		s := place(uint64(i + 1))
		if s < 0 || s >= cfg.Shards {
			return fmt.Errorf("cluster: placement sent stage %d to shard %d (have %d shards)", i+1, s, cfg.Shards)
		}
		owner[i] = s
		counts[s]++
	}

	base := controller.GlobalConfig{
		ListenAddr:       quorumPort,
		Algorithm:        cfg.Algorithm,
		FanOut:           cfg.FanOut,
		FanOutMode:       cfg.FanOutMode,
		CallTimeout:      cfg.CallTimeout,
		DeltaEnforcement: cfg.DeltaEnforcement,
		Incremental:      cfg.Incremental,
		IncrementalFloor: cfg.IncrementalFloor,
		MaxFailures:      cfg.MaxFailures,
		ProbeInterval:    cfg.ProbeInterval,
		MaxProbeInterval: cfg.MaxProbeInterval,
		StaleAfter:       cfg.StaleAfter,
		EvictAfter:       cfg.EvictAfter,
		LeaseTimeout:     cfg.LeaseTimeout,
		SyncInterval:     cfg.SyncInterval,
	}

	groups := make([]*shard.Group, cfg.Shards)
	parents := make([][]string, cfg.Shards)
	for s := 0; s < cfg.Shards; s++ {
		leaderAddr := ShardHost(s) + quorumPort
		sbAddrs := make([]string, cfg.Standbys)
		for i := range sbAddrs {
			sbAddrs[i] = ShardStandbyHost(s, i) + quorumPort
		}

		// Standbys first, so the leader's first sync finds them listening.
		var standbys []*controller.Global
		for i := 0; i < cfg.Standbys; i++ {
			host := ShardStandbyHost(s, i)
			scfg := base
			scfg.Network = c.Net.Host(host)
			scfg.ID = uint64(i + 2)
			scfg.Standby = true
			scfg.Capacity = cfg.Capacity.Scale(float64(counts[s]) / float64(cfg.Stages))
			if cfg.Standbys > 1 {
				peers := []string{leaderAddr}
				for j, a := range sbAddrs {
					if j != i {
						peers = append(peers, a)
					}
				}
				scfg.StandbyAddrs = peers
			}
			st, err := c.openStore(host)
			if err != nil {
				return err
			}
			scfg.Store = st
			sb, err := controller.StartGlobal(scfg)
			if err != nil {
				if st != nil {
					st.Close()
				}
				return fmt.Errorf("cluster: shard %d standby %d: %w", s, i, err)
			}
			standbys = append(standbys, sb)
			c.Standbys = append(c.Standbys, sb)
		}

		role := Roles{Meter: &transport.Meter{}, CPU: &monitor.CPUMeter{}}
		gcfg := base
		gcfg.Network = c.Net.Host(ShardHost(s))
		gcfg.ID = 1
		gcfg.Epoch = 1
		gcfg.Capacity = cfg.Capacity.Scale(float64(counts[s]) / float64(cfg.Stages))
		gcfg.StandbyAddrs = sbAddrs
		gcfg.Meter = role.Meter
		gcfg.CPU = role.CPU
		st, err := c.openStore(ShardHost(s))
		if err != nil {
			return err
		}
		gcfg.Store = st
		g, err := controller.StartGlobal(gcfg)
		if err != nil {
			if st != nil {
				st.Close()
			}
			return fmt.Errorf("cluster: shard %d: %w", s, err)
		}
		c.Globals = append(c.Globals, g)
		c.ShardRoles = append(c.ShardRoles, role)
		groups[s] = shard.NewGroup(g, standbys, sbAddrs)

		parents[s] = append([]string{g.Addr()}, sbAddrs...)
	}

	for i := 0; i < cfg.Stages; i++ {
		scfg := stage.Config{
			ID:            uint64(i + 1),
			JobID:         uint64(i%cfg.Jobs + 1),
			Weight:        1,
			Generator:     cfg.Workload,
			Network:       c.Net.Host(fmt.Sprintf("stage-%d", i+1)),
			Tracer:        c.stageTracer(),
			PushThreshold: cfg.PushThreshold,
			PushInterval:  cfg.PushInterval,
			PushFloor:     cfg.PushFloor,
		}
		if cfg.Standbys > 0 {
			scfg.Parents = parents[owner[i]]
			scfg.ParentTimeout = cfg.ParentTimeout
		}
		v, err := stage.StartVirtual(scfg)
		if err != nil {
			return fmt.Errorf("cluster: stage %d: %w", i+1, err)
		}
		c.Stages = append(c.Stages, v)
		if cfg.Standbys == 0 {
			if err := c.Globals[owner[i]].AddStage(ctx, v.Info()); err != nil {
				return fmt.Errorf("cluster: shard %d attach: %w", owner[i], err)
			}
		}
	}

	if cfg.Standbys > 0 {
		// Registration is asynchronous; wait until every shard owns its
		// slice of the fleet.
		deadline := time.Now().Add(10 * time.Second)
		for s, g := range c.Globals {
			for g.NumChildren() < counts[s] {
				if time.Now().After(deadline) {
					return fmt.Errorf("cluster: shard %d: only %d/%d stages registered", s, g.NumChildren(), counts[s])
				}
				time.Sleep(2 * time.Millisecond)
			}
		}
	}

	c.Router = shard.NewRouter(groups, shard.Config{Placement: cfg.Placement, VirtualNodes: cfg.VirtualNodes})
	return nil
}

package cluster

import (
	"context"
	"fmt"
	"time"

	"github.com/dsrhaslab/sdscale/internal/controller"
	"github.com/dsrhaslab/sdscale/internal/shard"
)

// ShardHost returns the simulated-network host name of shard s's leader in
// a deployment built with more than one shard (a one-shard deployment's
// leader is "global").
func ShardHost(s int) string { return fmt.Sprintf("shard-%d", s) }

// ShardStandbyHost returns the host name of shard s's i-th (0-based) warm
// standby in a deployment built with more than one shard (a one-shard
// deployment's standbys are StandbyHost(i)).
func ShardStandbyHost(s, i int) string { return fmt.Sprintf("shard-%d-standby-%d", s, i) }

// Validate returns the configuration Build builds from c, its defaults
// applied (Shards zero is one, or the connection-limit minimum for
// Coordinated; Jobs at most Stages), or why Build cannot honour c. It is
// the one rule set for a deployment's shape: sdscale.Topology and the
// daemon's configuration file lower onto a Config and validate through it,
// so a spec that validates also builds.
func (c Config) Validate() (Config, error) {
	c = c.withDefaults()
	return c, c.shapeErr()
}

// shapeErr is Validate's rule set, applied to a defaulted configuration.
func (c Config) shapeErr() error {
	switch {
	case c.Topology != Flat && c.Topology != Hierarchical && c.Topology != Coordinated:
		return fmt.Errorf("cluster: unknown topology %v", c.Topology)
	case c.Stages < 1:
		return fmt.Errorf("cluster: need at least one stage, got %d", c.Stages)
	case c.Shards < 1:
		return fmt.Errorf("cluster: Shards must be >= 1, got %d", c.Shards)
	case c.Shards > c.Stages:
		// A leader without children fails its first cycle.
		return fmt.Errorf("cluster: %d stages cannot populate %d shards", c.Stages, c.Shards)
	case c.Standbys < 0:
		return fmt.Errorf("cluster: negative standby count %d", c.Standbys)
	case c.Standbys > 2:
		// Each shard's voter set is its leader plus the standbys, and a
		// promotion needs a strict majority of the voters. Standbys must
		// stay below that majority threshold (voters/2 + 1, in real
		// arithmetic): past it, adding standbys only enlarges the
		// electorate a candidate must win without adding a leader that
		// could ever serve. The bound works out to at most two.
		return fmt.Errorf("cluster: %d standbys exceed the %d-voter quorum threshold; at most 2 standbys per shard are supported",
			c.Standbys, c.Standbys+1)
	case c.Shards > 1 && c.Topology == Hierarchical:
		return fmt.Errorf("cluster: aggregator tiers and sharding are exclusive (%d shards)", c.Shards)
	case c.Standbys > 0 && c.Topology != Flat:
		return fmt.Errorf("cluster: standby failover is only supported for the flat topology, not %v", c.Topology)
	case c.Placement == nil:
		return nil
	case c.Shards < 2:
		return fmt.Errorf("cluster: custom placement requires Shards > 1")
	case c.Standbys > 0:
		// A custom placement function is opaque: nothing proves it stable,
		// so the per-shard parent lists that standby re-homing depends on
		// could disagree with where it sends a re-registering child.
		return fmt.Errorf("cluster: custom placement is incompatible with Standbys; use the default consistent-hash placement")
	}
	// Every stage ID lands on exactly one in-range shard, so the shards'
	// populations sum to the fleet and no child is orphaned.
	for id := uint64(1); id <= uint64(c.Stages); id++ {
		if s := c.Placement(id); s < 0 || s >= c.Shards {
			return fmt.Errorf("cluster: placement sent stage %d to shard %d (have %d shards)", id, s, c.Shards)
		}
	}
	return nil
}

// WithFanIn lowers a per-aggregator fan-in, the declarative specs' way to
// ask for the hierarchical design, onto c: a positive fanIn selects
// Hierarchical with the fewest aggregators that leave none owning more
// than fanIn of the Stages; zero leaves c as it is.
func (c Config) WithFanIn(fanIn int) (Config, error) {
	switch {
	case fanIn < 0:
		return c, fmt.Errorf("cluster: negative aggregator fan-in %d", fanIn)
	case fanIn > 0:
		c.Topology, c.Aggregators = Hierarchical, (c.Stages+fanIn-1)/fanIn
	}
	return c, nil
}

// buildGroups builds every deployment: Shards groups of one leader and
// Standbys warm standbys (each with its own write-ahead store under
// DataDir), behind a shard.Router. Children are placed by consistent
// hashing (or the custom Placement), and each shard's capacity is the fleet
// capacity scaled by its share of the stages. A hierarchical deployment is
// one group whose leader's children are aggregators. A coordinated one
// places the fleet in balanced contiguous slices, gives every leader the full
// capacity, and meshes the leaders as fellows, which split it by demand.
// Without standbys the builder attaches each stage to its shard directly,
// in stage order; with standbys stages register through their shard's
// parent list — the path re-homing takes after a failover, and the path a
// handoff re-uses for a shard move.
func (c *Cluster) buildGroups(ctx context.Context) error {
	cfg := c.cfg

	place := cfg.Placement
	switch {
	case place != nil:
	case cfg.Topology == Coordinated:
		// Contiguous slices whose sizes differ by at most one, so no
		// leader is left empty; stages grown later join the last slice.
		stages, shards := uint64(cfg.Stages), uint64(cfg.Shards)
		place = func(id uint64) int { return int(min((id-1)*shards/stages, shards-1)) }
	default:
		place = shard.NewRing(cfg.Shards, cfg.VirtualNodes).Place
	}
	// Place the whole fleet first: per-shard capacity and the
	// registration waits need the shard populations.
	owner := make([]int, cfg.Stages)
	counts := make([]int, cfg.Shards)
	for i := range owner {
		owner[i] = place(uint64(i + 1))
		counts[owner[i]]++
	}

	groups := make([]*shard.Group, cfg.Shards)
	for s := range groups {
		g, err := c.startGroup(s, counts[s])
		if err != nil {
			return err
		}
		groups[s] = g
	}

	// The whole fleet starts, then attaches in stage order. With standbys,
	// a stage's parent list is its shard's controllers, leader first, and
	// the stages register themselves.
	parents := make([][]string, cfg.Shards)
	if cfg.Standbys > 0 {
		for s, g := range groups {
			for _, m := range g.Members() {
				parents[s] = append(parents[s], m.Addr())
			}
		}
	}
	for _, s := range owner {
		v, err := c.startStage(parents[s])
		if err != nil {
			return err
		}
		c.Stages = append(c.Stages, v)
	}

	var err error
	switch {
	case cfg.Topology == Hierarchical:
		err = c.attachAggregators(ctx)
	case cfg.Standbys > 0:
		err = c.awaitRegistration(counts)
	default:
		for i, v := range c.Stages {
			if err = c.Globals[owner[i]].AddStage(ctx, v.Info()); err != nil {
				err = fmt.Errorf("cluster: shard %d attach: %w", owner[i], err)
				break
			}
		}
	}
	if err != nil {
		return err
	}
	if cfg.Topology == Coordinated {
		for _, g := range c.Globals {
			for _, f := range c.Globals {
				if g == f {
					continue
				}
				if err := g.AddPeer(ctx, f.ID(), f.Addr()); err != nil {
					return fmt.Errorf("cluster: mesh: %w", err)
				}
			}
		}
	}
	c.Router = shard.NewRouter(groups, shard.Config{Placement: place})
	return nil
}

// awaitRegistration waits until every shard leader owns its slice of the
// fleet: stages with a parent list register asynchronously.
func (c *Cluster) awaitRegistration(counts []int) error {
	deadline := time.Now().Add(10 * time.Second)
	for s, g := range c.Globals {
		for g.NumChildren() < counts[s] {
			if time.Now().After(deadline) {
				return fmt.Errorf("cluster: shard %d: only %d/%d stages registered", s, g.NumChildren(), counts[s])
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	return nil
}

// startGroup starts shard s's standbys, then its leader, so the leader's
// first state sync finds them listening; n is the shard's share of the
// fleet, which sizes its capacity. The group joins Globals, ShardRoles and
// Standbys. The one shard of a deployment built with one keeps the classic
// names: its leader is host "global" (Global, GlobalRole, Trace.Global)
// and its standbys are StandbyHost(i), the first being Standby
// (StandbyRole, Trace.Standby). In a deployment built with more than one
// shard, each leader traces into Trace.Mid. A coordinated leader is host
// "peer-<s+1>" with ID 2,000,000+s, so its fellows tell it apart.
func (c *Cluster) startGroup(s, n int) (*shard.Group, error) {
	cfg := c.cfg
	single := s == 0 && cfg.Shards == 1
	leaderHost, standbyHost := ShardHost(s), func(i int) string { return ShardStandbyHost(s, i) }
	leaderID := uint64(1)
	switch {
	case cfg.Topology == Coordinated:
		leaderHost, leaderID = fmt.Sprintf("peer-%d", s+1), uint64(2_000_000+s)
	case single:
		leaderHost, standbyHost = "global", StandbyHost
	}
	var sbAddrs []string
	for i := 0; i < cfg.Standbys; i++ {
		sbAddrs = append(sbAddrs, standbyHost(i)+quorumPort)
	}

	var standbys []*controller.Global
	for i := range sbAddrs {
		role := newRoles()
		gcfg := c.globalConfig(standbyHost(i), n, role)
		gcfg.ID = uint64(i + 2)
		gcfg.Standby = true
		if len(sbAddrs) > 1 {
			// Quorum membership: the leader plus the other standbys. A lone
			// standby keeps the empty list and with it the direct
			// promote-on-expiry behaviour.
			gcfg.StandbyAddrs = []string{leaderHost + quorumPort}
			for j, a := range sbAddrs {
				if j != i {
					gcfg.StandbyAddrs = append(gcfg.StandbyAddrs, a)
				}
			}
		}
		if single && i == 0 && c.Trace != nil {
			c.Trace.Standby = c.newTracer()
			gcfg.Tracer = c.Trace.Standby
		}
		sb, err := c.startGlobal(standbyHost(i), gcfg)
		if err != nil {
			return nil, err
		}
		standbys = append(standbys, sb)
		c.Standbys = append(c.Standbys, sb)
		if single && i == 0 {
			c.Standby, c.StandbyRole = sb, role
		}
	}

	role := newRoles()
	gcfg := c.globalConfig(leaderHost, n, role)
	gcfg.ID = leaderID
	gcfg.StandbyAddrs = sbAddrs
	if len(sbAddrs) > 0 {
		// GlobalConfig.Epoch's convention: a leader with standbys starts
		// at 1; one without stays at 0, like any unreplicated controller.
		gcfg.Epoch = 1
	}
	switch {
	case c.Trace == nil:
	case single:
		c.Trace.Global = c.newTracer()
		gcfg.Tracer = c.Trace.Global
	case cfg.Shards > 1:
		gcfg.Tracer = c.newTracer()
		c.Trace.Mid = append(c.Trace.Mid, gcfg.Tracer)
	}
	g, err := c.startGlobal(leaderHost, gcfg)
	if err != nil {
		return nil, err
	}
	c.Globals = append(c.Globals, g)
	c.ShardRoles = append(c.ShardRoles, role)
	if single {
		c.Global, c.GlobalRole = g, role
	}
	return shard.NewGroup(g, standbys, sbAddrs), nil
}

// globalConfig is the configuration every global controller of the
// deployment starts from — leader, standby, or a shard grown live — on
// host, sized for n of the fleet's stages. A coordinated leader gets the
// whole capacity: the fellows' merged view splits it.
func (c *Cluster) globalConfig(host string, n int, role Roles) controller.GlobalConfig {
	cfg := c.cfg
	capacity := cfg.Capacity
	if cfg.Topology != Coordinated {
		capacity = capacity.Scale(float64(n) / float64(cfg.Stages))
	}
	return controller.GlobalConfig{
		ListenAddr:       quorumPort,
		Network:          c.Net.Host(host),
		Capacity:         capacity,
		Algorithm:        cfg.Algorithm,
		FanOut:           cfg.FanOut,
		FanOutMode:       cfg.FanOutMode,
		CallTimeout:      cfg.CallTimeout,
		Delegated:        cfg.Delegated,
		DeltaEnforcement: cfg.DeltaEnforcement,
		Incremental:      cfg.Incremental,
		IncrementalFloor: cfg.IncrementalFloor,
		MaxFailures:      cfg.MaxFailures,
		ProbeInterval:    cfg.ProbeInterval,
		MaxProbeInterval: cfg.MaxProbeInterval,
		StaleAfter:       cfg.StaleAfter,
		LeaseTimeout:     cfg.LeaseTimeout,
		SyncInterval:     cfg.SyncInterval,
		Meter:            role.Meter,
		CPU:              role.CPU,
	}
}

// startGlobal opens host's store and starts a global controller with it.
func (c *Cluster) startGlobal(host string, gcfg controller.GlobalConfig) (*controller.Global, error) {
	st, err := c.openStore(host)
	if err != nil {
		return nil, err
	}
	gcfg.Store = st
	g, err := controller.StartGlobal(gcfg)
	if err != nil {
		if st != nil {
			st.Close()
		}
		return nil, fmt.Errorf("cluster: %s: %w", host, err)
	}
	return g, nil
}

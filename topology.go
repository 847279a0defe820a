package sdscale

import (
	"context"
	"fmt"
	"sync"

	"github.com/dsrhaslab/sdscale/internal/cluster"
	"github.com/dsrhaslab/sdscale/internal/shard"
	"github.com/dsrhaslab/sdscale/internal/wire"
)

// Topology is the declarative description of a control-plane deployment:
// how many shards lead the fleet, how each shard survives its leader, and
// how children find their shard. StartTopology consumes it and returns the
// running Deployment.
//
// The zero value is not valid — at minimum Stages must be set; Shards
// zero means one. The per-role Start* constructors (StartGlobal,
// StartAggregator, ...) remain available as the manual-assembly path for
// programs that need to wire roles one by one; everything they build,
// StartTopology builds from this one spec.
type Topology struct {
	// Stages is the fleet size: one virtual stage per simulated compute
	// node, exactly as the paper's experiments assume. Required.
	Stages int
	// Jobs spreads the stages over this many distinct jobs. Zero selects
	// the harness default (16).
	Jobs int

	// Shards is the number of concurrently active global controllers the
	// fleet is partitioned across, behind one routing tier that fans
	// cross-shard operations out to every leader. Zero or one deploys the
	// classic single global controller; higher values bound each
	// controller's child count and blast radius.
	Shards int
	// Standbys gives every shard this many warm standbys: the leader
	// replicates state to them, and lease expiry triggers promotion (one
	// standby) or a majority election (two). At most two — see Validate.
	Standbys int
	// AggregatorFanIn, when positive, deploys the paper's hierarchical
	// design instead: one aggregator tier between the global controller
	// and the stages, each aggregator owning at most AggregatorFanIn
	// stages. Incompatible with Shards > 1.
	AggregatorFanIn int

	// Placement overrides the consistent-hash child placement (Shards > 1
	// only): it must map every stage ID in [1, Stages] to a shard in
	// [0, Shards). Incompatible with Standbys — see Validate. Nil selects
	// the default ring.
	Placement func(childID uint64) int
	// VirtualNodes tunes the default placement ring's granularity; zero
	// selects the package default.
	VirtualNodes int

	// DataDir, when set, gives every controller a durable write-ahead
	// store under it, enabling cold-restart recovery.
	DataDir string
	// Workload generates per-stage demand. Nil selects the paper's stress
	// workload.
	Workload Generator
	// Capacity is the administrator-configured PFS operation-rate maximum,
	// divided among the shards in proportion to their child counts. Zero
	// selects the harness default.
	Capacity Rates
	// Incremental switches the deployment to the event-driven incremental
	// cycle (stage push deltas, dirty-child tracking).
	Incremental bool
	// Net parameterizes the simulated network the deployment runs on.
	Net SimNetConfig
}

// Validate checks the spec without building anything. StartTopology calls
// it after normalizing Shards zero to one; calling it directly requires
// Shards >= 1.
func (t Topology) Validate() error {
	if t.Stages < 1 {
		return fmt.Errorf("sdscale: topology needs at least one stage, got %d", t.Stages)
	}
	if t.Shards < 1 {
		return fmt.Errorf("sdscale: topology needs at least one shard, got %d", t.Shards)
	}
	if t.Standbys < 0 {
		return fmt.Errorf("sdscale: negative standby count %d", t.Standbys)
	}
	// Each shard's voter set is its leader plus the standbys, and a
	// promotion needs a strict majority of the voters. Standbys must stay
	// below that majority threshold (voters/2 + 1, in real arithmetic):
	// past it, adding standbys only enlarges the electorate a candidate
	// must win without adding a leader that could ever serve, so the spec
	// caps standbys rather than let availability silently degrade. The
	// bound works out to at most two standbys per shard.
	if voters := t.Standbys + 1; 2*t.Standbys >= voters+2 {
		return fmt.Errorf("sdscale: %d standbys exceed the %d-voter quorum threshold; at most 2 standbys per shard are supported",
			t.Standbys, voters)
	}
	if t.AggregatorFanIn < 0 {
		return fmt.Errorf("sdscale: negative aggregator fan-in %d", t.AggregatorFanIn)
	}
	if t.AggregatorFanIn > 0 && t.Shards > 1 {
		return fmt.Errorf("sdscale: aggregator tiers and sharding are exclusive (fan-in %d, shards %d)", t.AggregatorFanIn, t.Shards)
	}
	if t.Placement != nil {
		if t.Shards < 2 {
			return fmt.Errorf("sdscale: custom placement requires Shards > 1")
		}
		if t.Standbys > 0 {
			return fmt.Errorf("sdscale: custom placement is incompatible with Standbys; use the default consistent-hash placement")
		}
		// Placement total must equal the fleet: every stage ID lands on
		// exactly one in-range shard, so the shards' populations sum to
		// Stages and no child is orphaned or double-owned.
		for id := uint64(1); id <= uint64(t.Stages); id++ {
			if s := t.Placement(id); s < 0 || s >= t.Shards {
				return fmt.Errorf("sdscale: placement sends stage %d to shard %d (have %d shards)", id, s, t.Shards)
			}
		}
	}
	return nil
}

// clusterConfig lowers the spec onto the deployment harness.
func (t Topology) clusterConfig() ClusterConfig {
	cfg := ClusterConfig{
		Topology:     cluster.Flat,
		Stages:       t.Stages,
		Jobs:         t.Jobs,
		Shards:       t.Shards,
		Standbys:     t.Standbys,
		Placement:    t.Placement,
		VirtualNodes: t.VirtualNodes,
		DataDir:      t.DataDir,
		Workload:     t.Workload,
		Capacity:     t.Capacity,
		Incremental:  t.Incremental,
		Net:          t.Net,
	}
	if t.AggregatorFanIn > 0 {
		cfg.Topology = cluster.Hierarchical
		cfg.Aggregators = (t.Stages + t.AggregatorFanIn - 1) / t.AggregatorFanIn
	}
	return cfg
}

// StartTopology builds and starts the deployment a Topology describes. A
// one-shard spec is behaviorally identical to the classic StartGlobal +
// BuildCluster path, and every shape runs behind the same routing tier.
// The returned Deployment owns every role it started; Close tears it all
// down.
func StartTopology(t Topology) (*Deployment, error) {
	if t.Shards == 0 {
		t.Shards = 1
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	c, err := cluster.Build(t.clusterConfig())
	if err != nil {
		return nil, err
	}
	return &Deployment{c: c, spec: t}, nil
}

// Deployment is a running control plane started from a Topology spec. It
// presents one uniform surface regardless of shape: Stats merges every
// shard, Route answers ownership, Rebalance drives handoffs, RunCycle runs
// one control round across the whole deployment.
type Deployment struct {
	c    *cluster.Cluster
	spec Topology

	// opMu serializes the mutating operations (ApplyConfig, Resize,
	// SetStages, Grow/ShrinkAggregators, SetJobWeight) against each other.
	// None of them may run concurrently with RunCycle — the daemon's serve
	// loop applies them only at cycle boundaries.
	opMu sync.Mutex
}

// DeploymentStats is the unified operational snapshot of a deployment: the
// fleet-wide counters summed over every shard, plus each shard leader's
// full per-controller snapshot.
type DeploymentStats struct {
	// Shards is the number of concurrently active shard leaders.
	Shards int
	// Children, Stages and Quarantined count the fleet.
	Children    int
	Stages      int
	Quarantined int
	// CallErrors, Evictions and FencedCalls are fleet-wide sums.
	CallErrors  uint64
	Evictions   uint64
	FencedCalls uint64
	// MaxEpoch is the highest leadership epoch any shard leads with.
	MaxEpoch uint64
	// Moves and Rebalances count child handoffs and rebalance sweeps.
	Moves      uint64
	Rebalances uint64
	// PerShard holds each shard leader's snapshot, indexed by shard.
	PerShard []ControllerStats
}

// Stats snapshots the whole deployment.
func (d *Deployment) Stats() DeploymentStats {
	r := d.c.Router
	st := r.Stats()
	return DeploymentStats{
		Shards:      r.NumShards(),
		Children:    st.Children,
		Stages:      st.Stages,
		Quarantined: st.Quarantined,
		CallErrors:  st.CallErrors,
		Evictions:   st.Evictions,
		FencedCalls: st.FencedCalls,
		MaxEpoch:    st.MaxEpoch,
		Moves:       st.Moves,
		Rebalances:  st.Rebalances,
		PerShard:    st.Shards,
	}
}

// Route returns the shard currently owning childID and that shard's
// effective leader. A one-shard deployment routes everything to shard 0.
func (d *Deployment) Route(childID uint64) (int, *Global) { return d.c.Router.Route(childID) }

// Rebalance moves every child whose placement disagrees with its current
// owner back to its placement shard (a no-op with one shard) and returns
// the number of children moved.
func (d *Deployment) Rebalance(ctx context.Context) (int, error) { return d.c.Router.Rebalance(ctx) }

// RunCycle executes one control round across the whole deployment: every
// shard's effective leader concurrently, merged as per-phase maxima
// (shards overlap in time).
func (d *Deployment) RunCycle(ctx context.Context) (Breakdown, error) {
	return d.c.RunControlCycle(ctx)
}

// EnforceUniform applies one per-job rule across every shard in one round,
// each leader broadcasting it over the marshal-once shared-frame path. It
// returns the number of stages that applied the rule.
func (d *Deployment) EnforceUniform(ctx context.Context, jobID uint64, action RuleAction, limit Rates) (int, error) {
	return d.c.Router.EnforceUniform(ctx, jobID, action, limit)
}

// Summary digests the deployment's recorded control-round latency.
func (d *Deployment) Summary() Summary { return d.c.Recorder().Summarize() }

// NumShards returns the number of concurrently active shard leaders.
func (d *Deployment) NumShards() int { return d.c.Router.NumShards() }

// Shard returns shard i's effective leader — the escape hatch for
// experiments that reach into one shard (killing its leader, inspecting
// its store).
func (d *Deployment) Shard(i int) *Global { return d.c.Router.Group(i).Leader() }

// Leaders returns every shard's effective leader, in shard order: a promoted
// standby in place of its deposed primary, and each shard a resize added.
func (d *Deployment) Leaders() []*Global { return d.c.Router.Leaders() }

// Cluster exposes the underlying deployment harness: the simulated
// network, the stage fleet, the per-role instrumentation.
func (d *Deployment) Cluster() *Cluster { return d.c }

// Close tears the whole deployment down.
func (d *Deployment) Close() { d.c.Close() }

// Routing-tier wire metadata, for programs that query a live deployment's
// shard table over RPC (see PROTOCOL.md).
type (
	// ShardQuery asks any controller of a sharded deployment for its
	// routing metadata.
	ShardQuery = wire.ShardQuery
	// ShardMap is the routing table a ShardQuery answer carries.
	ShardMap = wire.ShardMap
	// ShardEntry describes one shard in a ShardMap.
	ShardEntry = wire.ShardEntry
)

// DefaultVirtualNodes is the default placement-ring granularity.
const DefaultVirtualNodes = shard.DefaultVirtualNodes

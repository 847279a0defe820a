package sdscale

import (
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
	// standby) or a majority election (two). At most two.
	Standbys int
	// AggregatorFanIn, when positive, deploys the paper's hierarchical
	// design instead: one aggregator tier between the global controller
	// and the stages, each aggregator owning at most AggregatorFanIn
	// stages. Incompatible with Shards > 1.
	AggregatorFanIn int

	// Placement overrides the consistent-hash child placement (Shards > 1
	// only): it must map every stage ID in [1, Stages] to a shard in
	// [0, Shards). Incompatible with Standbys. Nil selects the default
	// ring.
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

// Validate checks the spec without building anything: it lowers the spec
// onto the deployment harness and applies the harness's one rule set for a
// deployment's shape (ClusterConfig.Validate), so it accepts exactly the
// specs StartTopology builds.
func (t Topology) Validate() error {
	cfg, err := t.clusterConfig()
	if err == nil {
		_, err = cfg.Validate()
	}
	return err
}

// clusterConfig lowers the spec onto the deployment harness.
func (t Topology) clusterConfig() (ClusterConfig, error) {
	return ClusterConfig{
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
	}.WithFanIn(t.AggregatorFanIn)
}

// StartTopology builds and starts the deployment a Topology describes. A
// one-shard spec is behaviorally identical to the classic StartGlobal +
// BuildCluster path, and every shape runs behind the same routing tier.
// The returned Deployment owns every role it started; Close tears it all
// down.
func StartTopology(t Topology) (*Deployment, error) {
	cfg, err := t.clusterConfig()
	if err != nil {
		return nil, err
	}
	return cluster.Build(cfg)
}

// Deployment is a running control plane, whatever its shape: shard groups
// behind one routing tier (Router), a hierarchical deployment being one
// group whose leader's children are aggregators. Router answers ownership
// (Route), merges every shard's counters (Stats), drives handoffs
// (Rebalance) and reaches each shard's effective leader (Group(i).Leader());
// RunControlCycle runs one control round across the whole deployment and
// Recorder digests the rounds it ran.
type Deployment = cluster.Cluster

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

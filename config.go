package sdscale

import (
	"context"
	"fmt"

	"github.com/dsrhaslab/sdscale/internal/config"
)

// Daemon-facing configuration surface. A Config is the JSON file `sdsctl
// serve` loads: the Topology spec fields plus the runtime knobs the serve
// loop owns (control interval, job weights, SLO elasticity bounds).
// TopologyFromConfig lowers a file onto a Topology; ApplyConfig absorbs a
// reloaded file's safe deltas into a running Deployment.
type (
	// Config is a parsed daemon configuration file. See the package
	// internal/config for field-by-field reload semantics.
	Config = config.File
	// ConfigDelta is the set of safe changes between two Configs — what a
	// running deployment applies live.
	ConfigDelta = config.Delta
	// ConfigSLO is the elasticity block of a Config.
	ConfigSLO = config.SLO
)

// LoadConfig reads and validates the daemon configuration file at path.
func LoadConfig(path string) (*Config, error) { return config.Load(path) }

// ParseConfig decodes and validates a daemon configuration from bytes.
// Unknown fields are an error.
func ParseConfig(data []byte) (*Config, error) { return config.Parse(data) }

// DiffConfig classifies the change from old to next: safe deltas come back
// in the ConfigDelta, unsafe changes (topology shape, durability, workload,
// capacity, endpoint) are an error naming the fields.
func DiffConfig(old, next *Config) (ConfigDelta, error) { return config.Diff(old, next) }

// TopologyFromConfig lowers a configuration file onto the Topology spec it
// describes. The runtime knobs the file also carries (interval, poll, job
// weights, debug endpoint, SLO) are the daemon's to consume — they do not
// appear in the Topology.
func TopologyFromConfig(f *Config) (Topology, error) {
	t := Topology{
		Stages:          f.Stages,
		Jobs:            f.Jobs,
		Shards:          f.Shards,
		Standbys:        f.Standbys,
		AggregatorFanIn: f.AggregatorFanIn,
		VirtualNodes:    f.VirtualNodes,
		DataDir:         f.DataDir,
		Incremental:     f.Incremental,
	}
	if f.Workload != "" {
		g, err := ParseWorkload(f.Workload)
		if err != nil {
			return Topology{}, fmt.Errorf("sdscale: config workload: %w", err)
		}
		t.Workload = g
	}
	if len(f.Capacity) > 0 {
		var r Rates
		copy(r[:], f.Capacity)
		t.Capacity = r
	}
	return t, nil
}

// ApplyConfig absorbs the safe deltas between old and next into the running
// deployment: job weights retune allocation, fleet and shard sizes grow or
// shrink live. An unsafe change rejects the whole reload — nothing is
// applied and the returned error names the offending fields. Interval, poll
// and SLO changes are reported in the delta for the caller (the daemon's
// serve loop owns those knobs). Both configs must already be validated.
func (d *Deployment) ApplyConfig(ctx context.Context, old, next *Config) (ConfigDelta, error) {
	delta, err := config.Diff(old, next)
	if err != nil {
		return ConfigDelta{}, err
	}
	d.opMu.Lock()
	defer d.opMu.Unlock()
	for id, w := range delta.JobWeights {
		d.c.SetJobWeight(id, w)
	}
	if delta.Shards != 0 && delta.Shards != d.NumShards() {
		if err := d.c.ResizeShards(ctx, delta.Shards); err != nil {
			return delta, err
		}
	}
	if delta.Stages != 0 {
		if err := d.c.SetStages(ctx, delta.Stages); err != nil {
			return delta, err
		}
	}
	return delta, nil
}

// SetStages grows or shrinks the stage fleet to target, attaching new
// stages through whatever tier the deployment runs (shard leaders or
// aggregators).
func (d *Deployment) SetStages(ctx context.Context, target int) error {
	d.opMu.Lock()
	defer d.opMu.Unlock()
	return d.c.SetStages(ctx, target)
}

// Resize changes the number of concurrently active shard leaders to target,
// rebalancing every child onto the new ring. Only standbys-free flat
// deployments on the default placement support resizing.
func (d *Deployment) Resize(ctx context.Context, target int) error {
	d.opMu.Lock()
	defer d.opMu.Unlock()
	return d.c.ResizeShards(ctx, target)
}

// SetJobWeight retunes one job's QoS weight on every shard's leader; the
// next control cycle reallocates under the new weight.
func (d *Deployment) SetJobWeight(jobID uint64, weight float64) {
	d.opMu.Lock()
	defer d.opMu.Unlock()
	d.c.SetJobWeight(jobID, weight)
}

// NumAggregators returns the aggregator-tier size (zero for flat and
// sharded deployments).
func (d *Deployment) NumAggregators() int {
	d.opMu.Lock()
	defer d.opMu.Unlock()
	return d.c.NumAggregators()
}

// GrowAggregators adds one aggregator to a hierarchical deployment's tier,
// re-homing stages from the most loaded aggregators until the tier is
// balanced. It is the elasticity loop's grow actuator.
func (d *Deployment) GrowAggregators(ctx context.Context) error {
	d.opMu.Lock()
	defer d.opMu.Unlock()
	return d.c.GrowAggregators(ctx)
}

// ShrinkAggregators removes the most recently added aggregator, re-homing
// its stages over the survivors. It is the elasticity loop's shrink
// actuator.
func (d *Deployment) ShrinkAggregators(ctx context.Context) error {
	d.opMu.Lock()
	defer d.opMu.Unlock()
	return d.c.ShrinkAggregators(ctx)
}

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
// deployment d: job weights retune allocation, fleet and shard sizes grow or
// shrink live, all under one hold of d's mutation lock
// (Deployment.Reconfigure). An unsafe change rejects the whole reload —
// nothing is applied and the returned error names the offending fields.
// Interval, poll and SLO changes are reported in the delta for the caller
// (the daemon's serve loop owns those knobs). Both configs must already be
// validated.
func ApplyConfig(ctx context.Context, d *Deployment, old, next *Config) (ConfigDelta, error) {
	delta, err := config.Diff(old, next)
	if err != nil {
		return ConfigDelta{}, err
	}
	return delta, d.Reconfigure(ctx, delta.JobWeights, delta.Shards, delta.Stages)
}

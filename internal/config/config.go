// Package config is the daemon-facing configuration surface of a
// deployment: a JSON file that lowers onto a sdscale.Topology plus the
// runtime knobs (control interval, QoS weights, SLO elasticity bounds) the
// `sdsctl serve` daemon owns. It also implements hot reload: Diff
// classifies the change between two files into the deltas a running
// deployment can absorb live and the ones that need a restart, and
// Reloader applies that policy — a bad or unsafe new file is rejected,
// counted, and the old configuration stays in force.
package config

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/dsrhaslab/sdscale/internal/cluster"
	"github.com/dsrhaslab/sdscale/internal/wire"
)

// Duration is a time.Duration that marshals as a human-readable string
// ("250ms", "1s") and unmarshals either that form or a bare number of
// nanoseconds.
type Duration time.Duration

// UnmarshalJSON implements json.Unmarshaler.
func (d *Duration) UnmarshalJSON(b []byte) error {
	if len(b) > 0 && b[0] == '"' {
		var s string
		if err := json.Unmarshal(b, &s); err != nil {
			return err
		}
		v, err := time.ParseDuration(s)
		if err != nil {
			return fmt.Errorf("bad duration %q: %w", s, err)
		}
		*d = Duration(v)
		return nil
	}
	var n int64
	if err := json.Unmarshal(b, &n); err != nil {
		return err
	}
	*d = Duration(n)
	return nil
}

// MarshalJSON implements json.Marshaler.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// Value returns the underlying time.Duration.
func (d Duration) Value() time.Duration { return time.Duration(d) }

// SLO configures the elasticity control loop (see internal/elastic): the
// daemon watches per-cycle latency and grows or shrinks the aggregator tier
// to keep p90 under TargetP90.
type SLO struct {
	// TargetP90 is the per-cycle p90 latency objective. Required when the
	// slo block is present.
	TargetP90 Duration `json:"targetP90"`
	// Window is the number of control cycles per decision window. Zero
	// selects the elastic package default.
	Window int `json:"window,omitempty"`
	// BreachWindows is the number of consecutive breached windows that
	// trigger a grow. Zero selects the default.
	BreachWindows int `json:"breachWindows,omitempty"`
	// ClearWindows is the number of consecutive windows with headroom that
	// trigger a shrink. Zero selects the default.
	ClearWindows int `json:"clearWindows,omitempty"`
	// HeadroomRatio is the shrink threshold as a fraction of TargetP90
	// (hysteresis: shrink only when p90 < HeadroomRatio×TargetP90). Zero
	// selects the default.
	HeadroomRatio float64 `json:"headroomRatio,omitempty"`
	// Cooldown is the minimum time between scaling actions. Zero disables.
	Cooldown Duration `json:"cooldown,omitempty"`
	// MinAggregators and MaxAggregators bound the tier size. Zeros select
	// 1 and no upper bound.
	MinAggregators int `json:"minAggregators,omitempty"`
	MaxAggregators int `json:"maxAggregators,omitempty"`
}

// File is the daemon configuration: the topology spec fields (lowered onto
// sdscale.Topology by the daemon) plus the runtime knobs the serve loop
// owns. Unknown fields are rejected on load so typos fail loudly instead of
// silently configuring nothing.
type File struct {
	// Stages is the fleet size. Required, >= 1. Live-reloadable: the
	// daemon grows or shrinks the running fleet to match.
	Stages int `json:"stages"`
	// Jobs spreads the stages over this many jobs. Zero selects the
	// harness default. Not live-reloadable.
	Jobs int `json:"jobs,omitempty"`
	// Shards is the shard-leader count. Zero means one. Live-reloadable
	// (standbys-free deployments only): the daemon resizes the shard set
	// and rebalances.
	Shards int `json:"shards,omitempty"`
	// Standbys is the warm-standby count per shard. Not live-reloadable.
	Standbys int `json:"standbys,omitempty"`
	// AggregatorFanIn selects the hierarchical design (stages per
	// aggregator). Exclusive with Shards > 1. Not live-reloadable — the
	// elasticity loop, not the config file, owns the live tier size.
	AggregatorFanIn int `json:"aggregatorFanIn,omitempty"`
	// VirtualNodes tunes the placement ring. Not live-reloadable.
	VirtualNodes int `json:"virtualNodes,omitempty"`
	// DataDir enables the durable write-ahead store. Not live-reloadable.
	DataDir string `json:"dataDir,omitempty"`
	// Workload is a workload spec (see workload.Parse); empty selects the
	// paper's stress workload. Not live-reloadable.
	Workload string `json:"workload,omitempty"`
	// Capacity is the PFS operation-rate maximum as [data, meta] ops/s.
	// Empty selects the harness default. Not live-reloadable.
	Capacity []float64 `json:"capacity,omitempty"`
	// Incremental selects the event-driven incremental cycle. Not
	// live-reloadable.
	Incremental bool `json:"incremental,omitempty"`

	// Interval is the control-cycle interval. Zero selects one second.
	// Live-reloadable; takes effect at the next cycle boundary.
	Interval Duration `json:"interval,omitempty"`
	// Poll is the config-watcher polling interval. Zero selects 2s.
	// Live-reloadable.
	Poll Duration `json:"poll,omitempty"`
	// JobWeights maps job IDs (decimal strings — JSON object keys) to QoS
	// weights. Live-reloadable; entries removed on reload reset to 1.
	JobWeights map[string]float64 `json:"jobWeights,omitempty"`
	// Debug is the observability endpoint listen address
	// (/metrics, /healthz, /debug/vars, /debug/pprof). Empty disables.
	// Not live-reloadable.
	Debug string `json:"debug,omitempty"`
	// SLO enables the elasticity loop (hierarchical deployments only).
	// Live-reloadable.
	SLO *SLO `json:"slo,omitempty"`
}

// DefaultInterval is the control-cycle interval used when the file leaves
// Interval zero.
const DefaultInterval = time.Second

// DefaultPoll is the config-watcher polling interval used when the file
// leaves Poll zero.
const DefaultPoll = 2 * time.Second

// CycleInterval returns the effective control-cycle interval.
func (f *File) CycleInterval() time.Duration {
	if f.Interval > 0 {
		return f.Interval.Value()
	}
	return DefaultInterval
}

// PollInterval returns the effective watcher polling interval.
func (f *File) PollInterval() time.Duration {
	if f.Poll > 0 {
		return f.Poll.Value()
	}
	return DefaultPoll
}

// Weights returns the parsed job-weight table. Keys were validated on load.
func (f *File) Weights() map[uint64]float64 {
	if len(f.JobWeights) == 0 {
		return nil
	}
	out := make(map[uint64]float64, len(f.JobWeights))
	for k, w := range f.JobWeights {
		id, err := strconv.ParseUint(k, 10, 64)
		if err != nil {
			continue // Validate rejected these; defensive only
		}
		out[id] = w
	}
	return out
}

// Parse decodes and validates a configuration from bytes. Unknown fields
// are an error.
func Parse(data []byte) (*File, error) {
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	var f File
	if err := dec.Decode(&f); err != nil {
		return nil, fmt.Errorf("config: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("config: trailing data after the configuration object")
	}
	if err := f.Validate(); err != nil {
		return nil, err
	}
	return &f, nil
}

// Load reads and validates the configuration file at path.
func Load(path string) (*File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("config: %w", err)
	}
	f, err := Parse(data)
	if err != nil {
		return nil, fmt.Errorf("%w (in %s)", err, path)
	}
	return f, nil
}

// Validate checks the file: its own rules (jobs, capacity, intervals, job
// weights, the slo block), then the deployment shape it describes through
// cluster.Config.Validate, the one rule set the deployment is built by, so
// a file that loads cleanly also builds cleanly.
func (f *File) Validate() error {
	if f.Jobs < 0 {
		return fmt.Errorf("config: negative jobs %d", f.Jobs)
	}
	if len(f.Capacity) != 0 && len(f.Capacity) != int(wire.NumClasses) {
		return fmt.Errorf("config: capacity wants %d rates [data, meta], got %d", wire.NumClasses, len(f.Capacity))
	}
	for i, v := range f.Capacity {
		if v < 0 {
			return fmt.Errorf("config: negative capacity[%d] = %g", i, v)
		}
	}
	if f.Interval < 0 {
		return fmt.Errorf("config: negative interval %v", f.Interval.Value())
	}
	if f.Poll < 0 {
		return fmt.Errorf("config: negative poll %v", f.Poll.Value())
	}
	for k, w := range f.JobWeights {
		if _, err := strconv.ParseUint(k, 10, 64); err != nil {
			return fmt.Errorf("config: jobWeights key %q is not a job ID", k)
		}
		if w <= 0 {
			return fmt.Errorf("config: jobWeights[%s] must be positive, got %g", k, w)
		}
	}
	if s := f.SLO; s != nil {
		if s.TargetP90 <= 0 {
			return fmt.Errorf("config: slo.targetP90 must be positive")
		}
		if s.Window < 0 || s.BreachWindows < 0 || s.ClearWindows < 0 {
			return fmt.Errorf("config: negative slo window settings")
		}
		if s.HeadroomRatio < 0 || s.HeadroomRatio >= 1 {
			if s.HeadroomRatio != 0 {
				return fmt.Errorf("config: slo.headroomRatio must be in (0, 1), got %g", s.HeadroomRatio)
			}
		}
		if s.MinAggregators < 0 || s.MaxAggregators < 0 {
			return fmt.Errorf("config: negative slo aggregator bounds")
		}
		if s.MinAggregators > 0 && s.MaxAggregators > 0 && s.MinAggregators > s.MaxAggregators {
			return fmt.Errorf("config: slo.minAggregators %d exceeds maxAggregators %d", s.MinAggregators, s.MaxAggregators)
		}
		if f.AggregatorFanIn <= 0 {
			return fmt.Errorf("config: slo elasticity requires the hierarchical design (set aggregatorFanIn)")
		}
	}
	shape, err := cluster.Config{Stages: f.Stages, Shards: f.Shards, Standbys: f.Standbys}.WithFanIn(f.AggregatorFanIn)
	if err == nil {
		_, err = shape.Validate()
	}
	if err != nil {
		return fmt.Errorf("config: %w", err)
	}
	return nil
}

// Delta is the set of safe changes between two configurations — what a
// running deployment applies live.
type Delta struct {
	// Interval, when non-nil, is the new control-cycle interval; it takes
	// effect at the next cycle boundary.
	Interval *time.Duration
	// Poll, when non-nil, is the new watcher polling interval.
	Poll *time.Duration
	// JobWeights holds the job weights that changed (removed entries reset
	// to 1).
	JobWeights map[uint64]float64
	// Stages, when nonzero, is the new fleet size the deployment grows or
	// shrinks to.
	Stages int
	// Shards, when nonzero, is the new shard count the deployment resizes
	// and rebalances to.
	Shards int
	// SLO reports that the elasticity knobs changed; the daemon re-arms
	// the elastic controller with the new file's SLO block.
	SLO bool
}

// Empty reports whether the delta changes nothing.
func (d Delta) Empty() bool {
	return d.Interval == nil && d.Poll == nil && len(d.JobWeights) == 0 &&
		d.Stages == 0 && d.Shards == 0 && !d.SLO
}

// String renders the delta for operator logs.
func (d Delta) String() string {
	var parts []string
	if d.Interval != nil {
		parts = append(parts, fmt.Sprintf("interval=%v", *d.Interval))
	}
	if d.Poll != nil {
		parts = append(parts, fmt.Sprintf("poll=%v", *d.Poll))
	}
	if len(d.JobWeights) > 0 {
		ids := make([]uint64, 0, len(d.JobWeights))
		for id := range d.JobWeights {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		ws := make([]string, len(ids))
		for i, id := range ids {
			ws[i] = fmt.Sprintf("%d=%g", id, d.JobWeights[id])
		}
		parts = append(parts, "weights{"+strings.Join(ws, ",")+"}")
	}
	if d.Stages != 0 {
		parts = append(parts, fmt.Sprintf("stages=%d", d.Stages))
	}
	if d.Shards != 0 {
		parts = append(parts, fmt.Sprintf("shards=%d", d.Shards))
	}
	if d.SLO {
		parts = append(parts, "slo")
	}
	if len(parts) == 0 {
		return "no changes"
	}
	return strings.Join(parts, " ")
}

// unsafeChange records one field that cannot change without a restart.
type unsafeChange struct{ field, why string }

// Diff classifies the change from old to next. Safe deltas — control
// interval, watcher poll, job weights, fleet grow/shrink, shard count, SLO
// knobs — come back in the Delta; any unsafe change (topology shape,
// durability, workload, capacity, endpoint) is an error naming the fields,
// and the caller keeps old. Both files must already be validated.
func Diff(old, next *File) (Delta, error) {
	var d Delta
	var unsafe []unsafeChange
	frozen := func(changed bool, field string) {
		if changed {
			unsafe = append(unsafe, unsafeChange{field, "requires a restart"})
		}
	}
	frozen(old.Jobs != next.Jobs, "jobs")
	frozen(old.Standbys != next.Standbys, "standbys")
	frozen(old.AggregatorFanIn != next.AggregatorFanIn, "aggregatorFanIn")
	frozen(old.VirtualNodes != next.VirtualNodes, "virtualNodes")
	frozen(old.DataDir != next.DataDir, "dataDir")
	frozen(old.Workload != next.Workload, "workload")
	frozen(old.Incremental != next.Incremental, "incremental")
	frozen(old.Debug != next.Debug, "debug")
	if len(old.Capacity) != len(next.Capacity) {
		frozen(true, "capacity")
	} else {
		for i := range old.Capacity {
			if old.Capacity[i] != next.Capacity[i] {
				frozen(true, "capacity")
				break
			}
		}
	}

	oldShards, newShards := normShards(old.Shards), normShards(next.Shards)
	if newShards != oldShards {
		if old.Standbys > 0 {
			unsafe = append(unsafe, unsafeChange{"shards", "shard resize requires standbys = 0"})
		} else {
			d.Shards = newShards
		}
	}
	if next.Stages != old.Stages {
		switch {
		case old.Standbys > 0:
			unsafe = append(unsafe, unsafeChange{"stages", "fleet resize requires standbys = 0"})
		case next.Stages < newShards:
			// Shrinking the fleet below the live shard count would leave
			// leaders with nothing to lead; Validate catches this for
			// shards > 1, and a one-shard fleet still needs one stage.
			unsafe = append(unsafe, unsafeChange{"stages",
				fmt.Sprintf("cannot shrink the fleet below the %d live shard(s)", newShards)})
		default:
			d.Stages = next.Stages
		}
	}

	if len(unsafe) > 0 {
		fields := make([]string, len(unsafe))
		for i, u := range unsafe {
			fields[i] = fmt.Sprintf("%s (%s)", u.field, u.why)
		}
		return Delta{}, fmt.Errorf("config: unsafe changes rejected, keeping previous config: %s",
			strings.Join(fields, ", "))
	}

	if oi, ni := old.CycleInterval(), next.CycleInterval(); oi != ni {
		d.Interval = &ni
	}
	if op, np := old.PollInterval(), next.PollInterval(); op != np {
		d.Poll = &np
	}
	ow, nw := old.Weights(), next.Weights()
	for id, w := range nw {
		if prev, ok := ow[id]; !ok || prev != w {
			if d.JobWeights == nil {
				d.JobWeights = make(map[uint64]float64)
			}
			d.JobWeights[id] = w
		}
	}
	for id := range ow {
		if _, ok := nw[id]; !ok {
			if d.JobWeights == nil {
				d.JobWeights = make(map[uint64]float64)
			}
			d.JobWeights[id] = 1 // removed entries reset to the default weight
		}
	}
	d.SLO = sloChanged(old.SLO, next.SLO)
	return d, nil
}

func normShards(n int) int {
	if n < 1 {
		return 1
	}
	return n
}

func sloChanged(a, b *SLO) bool {
	if (a == nil) != (b == nil) {
		return true
	}
	if a == nil {
		return false
	}
	return *a != *b
}

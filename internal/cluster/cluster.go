// Package cluster assembles complete in-process control-plane deployments:
// a simulated network, a fleet of virtual stages (one per simulated compute
// node, as the paper's experiments assume), optional aggregator tiers, and
// an instrumented global controller.
//
// It is the harness behind every reproduction experiment: "build a flat
// control plane over 2,500 nodes" or "build a hierarchy of 4 aggregators
// over 10,000 nodes" is one Build call.
package cluster

import (
	"context"
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"github.com/dsrhaslab/sdscale/internal/controlalg"
	"github.com/dsrhaslab/sdscale/internal/controller"
	"github.com/dsrhaslab/sdscale/internal/monitor"
	"github.com/dsrhaslab/sdscale/internal/shard"
	"github.com/dsrhaslab/sdscale/internal/stage"
	"github.com/dsrhaslab/sdscale/internal/store"
	"github.com/dsrhaslab/sdscale/internal/telemetry"
	"github.com/dsrhaslab/sdscale/internal/trace"
	"github.com/dsrhaslab/sdscale/internal/transport"
	"github.com/dsrhaslab/sdscale/internal/transport/simnet"
	"github.com/dsrhaslab/sdscale/internal/wire"
	"github.com/dsrhaslab/sdscale/internal/workload"
)

// Topology selects the control-plane design under test.
type Topology int

// The two designs the paper studies, plus the coordinated flat design its
// §VI proposes as future work.
const (
	// Flat is the single global controller design (paper Fig. 2).
	Flat Topology = iota
	// Hierarchical adds a tier of aggregator controllers (paper Fig. 3).
	Hierarchical
	// Coordinated is the future-work flat design with multiple controllers
	// that exchange per-job aggregates to keep global visibility without a
	// hierarchy (paper §VI): Shards flat leaders, each owning a contiguous
	// slice of the fleet and meshed with the others as fellows
	// (controller.Global.AddPeer).
	Coordinated
)

// String returns the topology name.
func (t Topology) String() string {
	switch t {
	case Flat:
		return "flat"
	case Hierarchical:
		return "hierarchical"
	case Coordinated:
		return "coordinated"
	}
	return fmt.Sprintf("Topology(%d)", int(t))
}

// Config describes a deployment to build.
type Config struct {
	// Topology selects flat or hierarchical.
	Topology Topology
	// Stages is the number of virtual stages — "compute nodes" in the
	// paper's terminology, since each node runs exactly one stage (§III-B).
	Stages int
	// Jobs is the number of distinct jobs the stages are spread over.
	// Zero selects 16.
	Jobs int
	// Aggregators is the aggregator count of the Hierarchical topology.
	// Zero selects ceil(Stages/2500), the minimum imposed by the
	// connection limit (§IV-B).
	Aggregators int
	// Shards partitions the fleet across this many concurrently active
	// global controllers. Every deployment is Shards controller groups —
	// each its own leader, and with Standbys set its own per-shard quorum
	// and stores — behind a shard.Router (Cluster.Router); a Hierarchical
	// deployment is one group whose leader's children are aggregators, and
	// a Coordinated one is Shards meshed leaders. Zero selects one, or
	// ceil(Stages/2500) for Coordinated; more than one requires the Flat or
	// Coordinated topology.
	Shards int
	// Placement overrides the consistent-hash child placement: it must map
	// every stage ID to a shard in [0, Shards). Requires Shards > 1 and is
	// incompatible with Standbys (see Validate). Nil selects the default
	// ring.
	Placement func(childID uint64) int
	// VirtualNodes tunes the default placement ring's granularity
	// (Shards > 1 only); zero selects shard.DefaultVirtualNodes.
	VirtualNodes int
	// Workload generates per-stage demand. Nil selects the paper's stress
	// workload.
	Workload workload.Generator
	// Capacity is the administrator-configured PFS operation-rate maximum.
	// Zero selects Stages×{500, 50} (half the stress demand, keeping PSFA
	// in its saturated regime).
	Capacity wire.Rates
	// Algorithm is the control algorithm. Nil selects PSFA.
	Algorithm controlalg.Algorithm
	// FanOut bounds every controller's dispatch parallelism. Zero selects
	// the controller default.
	FanOut int
	// FanOutMode selects every controller's collect/enforce dispatch
	// strategy. The zero value pipelines requests over the child
	// connections; controller.FanOutBlocking restores the paper prototype's
	// bounded pool, FanOut calls in flight (the paper-reproduction presets
	// set it).
	FanOutMode controller.FanOutMode
	// ForwardRaw disables metric pre-aggregation at aggregators
	// (hierarchical only); see controller.AggregatorConfig.ForwardRaw.
	// Used by ablation benchmarks.
	ForwardRaw bool
	// Delegated enables the delegated hierarchy (paper §VI): the global
	// controller ships per-job budgets and aggregators compute per-stage
	// rules locally. Hierarchical only.
	Delegated bool
	// DeltaEnforcement makes the global controller skip enforce messages
	// whose rules did not change; see controller.GlobalConfig. Used by
	// ablation benchmarks (the paper's stress workload re-enforces
	// everything every cycle).
	DeltaEnforcement bool
	// Incremental switches every controller to the event-driven incremental
	// cycle (dirty-child tracking fed by stage push deltas; see
	// controller.GlobalConfig.Incremental) and arms the stages' pushes at
	// DefaultPushThreshold. Requires the default pipelined fan-out; with
	// FanOutBlocking controllers keep the paper-faithful full cycle.
	Incremental bool
	// IncrementalFloor bounds the age of a cached report before an
	// incremental cycle re-collects explicitly; see
	// controller.GlobalConfig.IncrementalFloor. Zero selects StaleAfter.
	IncrementalFloor time.Duration
	// PushInterval and PushFloor tune the stage-side delta pushes
	// (Incremental only); see stage.Config.
	PushInterval time.Duration
	PushFloor    time.Duration
	// Net parameterizes the simulated network.
	Net simnet.Config
	// CallTimeout bounds child RPCs. Zero selects the controller default.
	CallTimeout time.Duration
	// MaxFailures, ProbeInterval, MaxProbeInterval and StaleAfter tune
	// every controller's per-child circuit breaker; see
	// controller.GlobalConfig for their semantics. Zeros select the
	// controller defaults. A quarantined child is never evicted.
	MaxFailures      int
	ProbeInterval    time.Duration
	MaxProbeInterval time.Duration
	StaleAfter       time.Duration
	// Standbys gives every shard this many warm standbys, each on its own
	// host (StandbyHost(i) in a one-shard deployment): the shard's leader
	// replicates state to them every SyncInterval, and every stage gets
	// the shard's controllers as its parent list, so a leader crash leads
	// to lease expiry, standby promotion, and automatic stage re-homing.
	// With one, the lone standby promotes directly on lease expiry; with
	// two or more they form a leadership quorum — a candidate promotes
	// only after a majority of the shard's controllers (leader plus
	// standbys) grants its epoch. Flat topology only.
	Standbys int
	// DataDir, when set, gives each global controller a durable
	// write-ahead store under DataDir/<host name> (see StoreDir):
	// membership, enforced rules, job weights, and leadership epochs and
	// votes survive a controller crash and feed cold-restart recovery.
	DataDir string
	// LeaseTimeout and SyncInterval tune failover detection (Standbys > 0
	// only); zeros select the controller defaults.
	LeaseTimeout time.Duration
	SyncInterval time.Duration
	// ParentTimeout is the stage-side upstream-silence threshold that
	// triggers re-homing (Standbys > 0 only). Zero selects the stage
	// default.
	ParentTimeout time.Duration
	// Tracing equips every controller (and the shared stage fleet) with a
	// span tracer, exposed via Cluster.Trace. Off by default: tracing costs
	// roughly one extra timestamp per sampled RPC and one atomic add per
	// unsampled one.
	Tracing bool
	// TraceSample is the call-sampling rate: one call in TraceSample
	// (rounded up to a power of two) is timed and recorded as a span; the
	// rest are counted only. Zero selects DefaultTraceSample, which keeps
	// tracing inside its <2% cycle-time budget; 1 records every call (the
	// tracebreak experiment uses this for exact decompositions).
	TraceSample int
}

// DefaultTraceSample is the call-sampling rate used when Config.TraceSample
// is zero: 1 in 32 calls is timed, the rest are counted. At the default
// rate a traced control cycle stays within the 2% overhead budget even on
// single-core hosts (see the tracing-overhead test at the repo root).
const DefaultTraceSample = 32

// DefaultPushThreshold is the relative rate movement that triggers a stage
// push when Config.Incremental is set: 5%, small enough that allocations
// track real demand shifts and large enough that sampling noise stays below
// it.
const DefaultPushThreshold = 0.05

func (c Config) withDefaults() Config {
	if c.Jobs <= 0 {
		c.Jobs = 16
	}
	if c.Jobs > c.Stages && c.Stages > 0 {
		c.Jobs = c.Stages
	}
	if c.Workload == nil {
		c.Workload = workload.Stress()
	}
	if c.Capacity.IsZero() {
		c.Capacity = wire.Rates{500, 50}.Scale(float64(c.Stages))
	}
	// The connection limit's minimum controller count (§IV-B).
	atLimit := max(1, (c.Stages+simnet.DefaultMaxConns-1)/simnet.DefaultMaxConns)
	if c.Shards == 0 {
		c.Shards = 1
		if c.Topology == Coordinated {
			c.Shards = atLimit
		}
	}
	if c.Topology == Hierarchical && c.Aggregators <= 0 {
		c.Aggregators = atLimit
	}
	return c
}

// ClusterTrace groups a traced deployment's tracers. Controllers each get
// their own tracer (a tracer's cycle context is single-writer), while the
// whole stage fleet shares one: stage servers only record server spans,
// which never touch the context words.
type ClusterTrace struct {
	// Global traces the top-level controller of a one-shard deployment.
	Global *trace.Tracer
	// Standby traces its first warm standby (Config.Standbys > 0 only).
	Standby *trace.Tracer
	// Mid traces the mid tier, index-aligned with Cluster.Aggregators or,
	// in a deployment built with more than one shard, Cluster.Globals.
	Mid []*trace.Tracer
	// Stages is the tracer shared by every stage server.
	Stages *trace.Tracer
}

// Each calls fn for every non-nil tracer with a stable, unique name.
func (ct *ClusterTrace) Each(fn func(name string, tr *trace.Tracer)) {
	if ct == nil {
		return
	}
	if ct.Global != nil {
		fn("global", ct.Global)
	}
	if ct.Standby != nil {
		fn("standby", ct.Standby)
	}
	for i, tr := range ct.Mid {
		if tr != nil {
			fn(fmt.Sprintf("mid-%d", i+1), tr)
		}
	}
	if ct.Stages != nil {
		fn("stages", ct.Stages)
	}
}

// Roles groups the instrumentation of one controller role.
type Roles struct {
	// Meter accounts the role's network traffic.
	Meter *transport.Meter
	// CPU accounts the role's busy time.
	CPU *monitor.CPUMeter
}

// newRoles instruments one controller.
func newRoles() Roles { return Roles{Meter: &transport.Meter{}, CPU: &monitor.CPUMeter{}} }

// Cluster is a built deployment.
type Cluster struct {
	cfg Config

	// mu serializes the live-reshaping mutators of elastic.go against each
	// other. None of them may run concurrently with RunControlCycle: the
	// daemon's serve loop applies them only at cycle boundaries.
	mu sync.Mutex

	// Net is the simulated network everything runs on.
	Net *simnet.Net
	// Global is the configured leader of a one-shard deployment —
	// Globals[0] (nil for deployments built with more than one shard).
	Global *controller.Global
	// Standby is the first warm standby of a one-shard deployment
	// (Config.Standbys > 0 only): Standbys[0].
	Standby *controller.Global
	// Standbys lists every warm standby, shard by shard, each shard's
	// index-aligned with its hosts (StandbyHost or ShardStandbyHost).
	Standbys []*controller.Global
	// Aggregators is the mid tier (Hierarchical only).
	Aggregators []*controller.Aggregator
	// Globals lists every shard's configured leader, index-aligned with
	// the shards.
	Globals []*controller.Global
	// Router is the routing tier over the shard groups: per-child routing,
	// cross-shard fan-out, handoff, rebalance, and each cycle's choice of a
	// shard's effective leader.
	Router *shard.Router
	// Stages is the virtual-stage fleet.
	Stages []*stage.Virtual

	// GlobalRole instruments Global.
	GlobalRole Roles
	// StandbyRole instruments Standby.
	StandbyRole Roles
	// AggregatorRoles instruments each aggregator, index-aligned with
	// Aggregators.
	AggregatorRoles []Roles
	// ShardRoles instruments each shard leader, index-aligned with Globals.
	ShardRoles []Roles
	// Trace holds the deployment's tracers (Config.Tracing only).
	Trace *ClusterTrace

	// recorder accumulates the latency of every round RunControlCycle
	// completes.
	recorder *telemetry.CycleRecorder

	// aggSeq and stageSeq are the next aggregator ordinal and stage index
	// the elastic surface (see elastic.go) mints: monotonic, so a grown
	// component never reuses the host or ID of a shrunken one.
	aggSeq   int
	stageSeq uint64
}

// Build assembles and connects a deployment; it refuses what Validate
// rejects. On error, everything already started is torn down.
func Build(cfg Config) (*Cluster, error) {
	cfg, err := cfg.Validate()
	if err != nil {
		return nil, err
	}
	c := &Cluster{cfg: cfg, Net: simnet.New(cfg.Net)}
	if err := c.build(); err != nil {
		c.Close()
		return nil, err
	}
	c.aggSeq = len(c.Aggregators)
	return c, nil
}

// traceCapacity is the per-tracer span-ring size, scaled with the stage
// fleet (a 10k-stage cycle records >20k call spans) and clamped.
func (c Config) traceCapacity() int {
	n := 4 * c.Stages
	if n < 4096 {
		n = 4096
	}
	if n > 1<<16 {
		n = 1 << 16
	}
	return n
}

// newTracer mints a tracer when tracing is enabled, else nil (which every
// trace call site treats as "off").
func (c *Cluster) newTracer() *trace.Tracer {
	if !c.cfg.Tracing {
		return nil
	}
	tr := trace.New(c.cfg.traceCapacity())
	every := c.cfg.TraceSample
	if every <= 0 {
		every = DefaultTraceSample
	}
	tr.SetSampleEvery(every)
	return tr
}

// stageTracer is the tracer shared by the whole stage fleet, nil when
// tracing is off.
func (c *Cluster) stageTracer() *trace.Tracer {
	if c.Trace == nil {
		return nil
	}
	return c.Trace.Stages
}

func (c *Cluster) build() error {
	cfg := c.cfg
	c.recorder = telemetry.NewCycleRecorder()
	if cfg.Tracing {
		c.Trace = &ClusterTrace{Stages: c.newTracer()}
	}
	return c.buildGroups(context.Background())
}

// quorumPort is the fixed registration port every global controller listens
// on: with deterministic host names, every quorum member knows its peers'
// addresses before any of them exists.
const quorumPort = ":41000"

// StandbyHost returns the simulated-network host name of the i-th (0-based)
// warm standby of a one-shard deployment.
func StandbyHost(i int) string {
	if i == 0 {
		return "global-standby"
	}
	return fmt.Sprintf("global-standby-%d", i+1)
}

// StoreDir returns the directory the named controller host persists its
// write-ahead store under when Config.DataDir is set — the path to reopen
// for cold-restart recovery after the whole control plane dies.
func StoreDir(dataDir, host string) string { return filepath.Join(dataDir, host) }

// openStore opens the durable store for one controller host, or returns nil
// when the deployment runs without a DataDir.
func (c *Cluster) openStore(host string) (*store.Store, error) {
	if c.cfg.DataDir == "" {
		return nil, nil
	}
	st, err := store.Open(store.Options{Dir: StoreDir(c.cfg.DataDir, host)})
	if err != nil {
		return nil, fmt.Errorf("cluster: store for %s: %w", host, err)
	}
	return st, nil
}

// startStage starts the fleet's next stage on a host of its own — the paper
// deploys 50 virtual stages per physical node but treats each as its own
// compute node (§III-D) — with the given parent list (nil for a stage its
// owner attaches directly). The caller adds it to Stages.
func (c *Cluster) startStage(parents []string) (*stage.Virtual, error) {
	cfg := c.cfg
	i := c.stageSeq
	c.stageSeq++
	var pushThreshold float64
	if cfg.Incremental {
		pushThreshold = DefaultPushThreshold
	}
	v, err := stage.StartVirtual(stage.Config{
		ID:            i + 1,
		JobID:         i%uint64(cfg.Jobs) + 1,
		Weight:        1,
		Generator:     cfg.Workload,
		Network:       c.Net.Host(fmt.Sprintf("stage-%d", i+1)),
		Parents:       parents,
		ParentTimeout: cfg.ParentTimeout,
		Tracer:        c.stageTracer(),
		PushThreshold: pushThreshold,
		PushInterval:  cfg.PushInterval,
		PushFloor:     cfg.PushFloor,
	})
	if err != nil {
		return nil, fmt.Errorf("cluster: stage %d: %w", i+1, err)
	}
	return v, nil
}

// attachAggregators builds the hierarchical tier under the global
// controller, partitioning the started stage fleet into contiguous disjoint
// sets as the paper does (each aggregator owns Stages/Aggregators nodes).
func (c *Cluster) attachAggregators(ctx context.Context) error {
	cfg := c.cfg
	per := (cfg.Stages + cfg.Aggregators - 1) / cfg.Aggregators
	for a := 0; a < cfg.Aggregators; a++ {
		role := newRoles()
		acfg := c.aggregatorConfig(a, role)
		if c.Trace != nil {
			acfg.Tracer = c.newTracer()
			c.Trace.Mid = append(c.Trace.Mid, acfg.Tracer)
		}
		agg, err := controller.StartAggregator(acfg)
		if err != nil {
			return fmt.Errorf("cluster: aggregator %d: %w", a, err)
		}
		c.Aggregators = append(c.Aggregators, agg)
		c.AggregatorRoles = append(c.AggregatorRoles, role)

		for _, v := range c.Stages[a*per : min((a+1)*per, cfg.Stages)] {
			if err := agg.AddStage(ctx, v.Info()); err != nil {
				return fmt.Errorf("cluster: aggregator %d attach: %w", a, err)
			}
		}
		if err := c.Global.AddAggregator(ctx, agg.ID(), agg.Addr(), agg.Stages()); err != nil {
			return fmt.Errorf("cluster: attach aggregator %d: %w", a, err)
		}
	}
	return nil
}

// Config returns the (defaulted) configuration the cluster was built from.
func (c *Cluster) Config() Config { return c.cfg }

// RunControlCycle executes one control round across the whole deployment:
// one concurrent cycle on every shard's effective leader, merged as
// per-phase maxima since the shards overlap in time.
func (c *Cluster) RunControlCycle(ctx context.Context) (telemetry.Breakdown, error) {
	b, err := c.Router.RunCycle(ctx)
	if err == nil {
		c.recorder.Record(b)
	}
	return b, err
}

// Recorder returns the deployment's control-round latency recorder: every
// round RunControlCycle completed.
func (c *Cluster) Recorder() *telemetry.CycleRecorder { return c.recorder }

// Close tears the whole deployment down, closing each controller once.
func (c *Cluster) Close() {
	for _, g := range c.Globals {
		g.Close()
	}
	for _, sb := range c.Standbys {
		sb.Close()
	}
	for _, a := range c.Aggregators {
		a.Close()
	}
	for _, v := range c.Stages {
		v.Close()
	}
}

// RoleUsage is one controller role's resource consumption over a window —
// one row block of the paper's Tables II-IV.
type RoleUsage struct {
	// CPUPercent is busy time over the window (100 = one core).
	CPUPercent float64
	// MemBytes is the role's estimated state size.
	MemBytes uint64
	// TxMBps and RxMBps are average send/receive rates in MB/s.
	TxMBps, RxMBps float64
}

// MemGB returns memory in decimal gigabytes.
func (u RoleUsage) MemGB() float64 { return float64(u.MemBytes) / 1e9 }

// UsageCollector measures role resource usage between Start and Stop.
type UsageCollector struct {
	cluster *Cluster
	start   time.Time

	gTx, gRx   uint64
	gBusy      time.Duration
	aTx, aRx   []uint64
	aBusy      []time.Duration
	collecting bool
}

// NewUsageCollector creates a collector for the cluster.
func NewUsageCollector(c *Cluster) *UsageCollector {
	return &UsageCollector{cluster: c}
}

// midTier returns the cluster's mid-tier roles and their memory reporters:
// the aggregators of a Hierarchical deployment, or the shard leaders of one
// built with more than one shard (which has no Global).
func (c *Cluster) midTier() ([]Roles, []monitor.MemoryReporter) {
	if c.Global == nil {
		reporters := make([]monitor.MemoryReporter, len(c.Globals))
		for i, g := range c.Globals {
			reporters[i] = g
		}
		return c.ShardRoles, reporters
	}
	reporters := make([]monitor.MemoryReporter, len(c.Aggregators))
	for i, a := range c.Aggregators {
		reporters[i] = a
	}
	return c.AggregatorRoles, reporters
}

// Start snapshots all meters, opening the measurement window.
func (u *UsageCollector) Start() {
	c := u.cluster
	u.start = time.Now()
	if c.Global != nil {
		u.gTx, u.gRx = c.GlobalRole.Meter.Snapshot()
		u.gBusy = c.GlobalRole.CPU.Busy()
	}
	u.aTx = u.aTx[:0]
	u.aRx = u.aRx[:0]
	u.aBusy = u.aBusy[:0]
	roles, _ := c.midTier()
	for _, r := range roles {
		tx, rx := r.Meter.Snapshot()
		u.aTx = append(u.aTx, tx)
		u.aRx = append(u.aRx, rx)
		u.aBusy = append(u.aBusy, r.CPU.Busy())
	}
	u.collecting = true
}

// Stop closes the window and reports the global controller's usage (zero
// for deployments built with more than one shard, which have none) plus the
// mean per-mid-tier controller usage, matching the paper's table layout ("average resource
// consumption per aggregator controller").
func (u *UsageCollector) Stop() (global RoleUsage, aggregator RoleUsage, elapsed time.Duration) {
	if !u.collecting {
		return RoleUsage{}, RoleUsage{}, 0
	}
	u.collecting = false
	c := u.cluster
	elapsed = time.Since(u.start)

	if c.Global != nil {
		tx, rx := c.GlobalRole.Meter.Snapshot()
		global = RoleUsage{
			CPUPercent: pct(c.GlobalRole.CPU.Busy()-u.gBusy, elapsed),
			MemBytes:   c.Global.MemoryFootprint(),
			TxMBps:     transport.Rate(tx-u.gTx, elapsed),
			RxMBps:     transport.Rate(rx-u.gRx, elapsed),
		}
	}

	roles, reporters := c.midTier()
	n := len(roles)
	if n == 0 {
		return global, RoleUsage{}, elapsed
	}
	for i, r := range roles {
		atx, arx := r.Meter.Snapshot()
		aggregator.CPUPercent += pct(r.CPU.Busy()-u.aBusy[i], elapsed)
		aggregator.MemBytes += reporters[i].MemoryFootprint()
		aggregator.TxMBps += transport.Rate(atx-u.aTx[i], elapsed)
		aggregator.RxMBps += transport.Rate(arx-u.aRx[i], elapsed)
	}
	aggregator.CPUPercent /= float64(n)
	aggregator.MemBytes /= uint64(n)
	aggregator.TxMBps /= float64(n)
	aggregator.RxMBps /= float64(n)
	return global, aggregator, elapsed
}

func pct(busy, elapsed time.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	p := 100 * float64(busy) / float64(elapsed)
	if p < 0 {
		return 0
	}
	return p
}

// Package sdscale is a software-defined storage (SDS) control plane for
// HPC infrastructures, and the reference implementation of the SC 2024
// study "Can Current SDS Controllers Scale To Modern HPC Infrastructures?".
//
// The package exposes the library's public API as a façade over the
// internal packages:
//
//   - Control plane: a Global controller runs the collect → compute →
//     enforce cycle; Aggregator controllers form the optional middle tier
//     of the hierarchical design.
//   - Data plane: Virtual stages (lightweight metric responders, used to
//     simulate large infrastructures exactly as the paper does) and
//     Enforcing stages (token-bucket rate limiters in front of a file
//     system) answer the control plane.
//   - Control algorithms: PSFA (proportional sharing without false
//     allocation) plus baselines.
//   - Transports: an in-process simulated network with per-host
//     connection limits and processing capacities (SimNet), and real TCP
//     (TCPNet).
//   - Harnesses: StartTopology and BuildCluster build whole deployments;
//     the experiment runners regenerate every table and figure of the
//     paper.
//
// # Quick start
//
// A deployment is declared as a Topology and started in one call:
//
//	d, _ := sdscale.StartTopology(sdscale.Topology{
//		Stages:   1000,
//		Shards:   4,
//		Standbys: 1,
//	})
//	defer d.Close()
//	d.RunControlCycle(context.Background())
//	fmt.Println(d.Router.Stats().Children, "children across", d.Router.NumShards(), "shards")
//
// StartTopology returns the running Deployment, whatever the shape: shard
// groups behind one routing tier (d.Router answers Route, Stats and
// Rebalance), driven by RunControlCycle. A one-shard Topology is the
// classic single-Global control plane, behind the same routing tier as
// every other shape.
//
// # Manual assembly
//
// Every controller kind is also launched individually by a Start*
// constructor (StartGlobal, StartAggregator, StartVirtualStage,
// StartEnforcingStage) and observed through its Stats method; a controller
// of the coordinated flat design (§VI) is a StartGlobal joined to its
// fellows with AddPeer. This is the manual-assembly path: it exists for programs that
// wire roles one by one across real networks or mix roles StartTopology
// does not cover. New code that just wants a running control plane should
// declare a Topology instead.
//
// See examples/ for complete programs and DESIGN.md for the architecture.
package sdscale

import (
	"context"
	"time"

	"github.com/dsrhaslab/sdscale/internal/cluster"
	"github.com/dsrhaslab/sdscale/internal/controlalg"
	"github.com/dsrhaslab/sdscale/internal/controller"
	"github.com/dsrhaslab/sdscale/internal/experiment"
	"github.com/dsrhaslab/sdscale/internal/jobsim"
	"github.com/dsrhaslab/sdscale/internal/pfs"
	"github.com/dsrhaslab/sdscale/internal/stage"
	"github.com/dsrhaslab/sdscale/internal/telemetry"
	"github.com/dsrhaslab/sdscale/internal/trace"
	"github.com/dsrhaslab/sdscale/internal/transport"
	"github.com/dsrhaslab/sdscale/internal/transport/simnet"
	"github.com/dsrhaslab/sdscale/internal/transport/tcpnet"
	"github.com/dsrhaslab/sdscale/internal/wire"
	"github.com/dsrhaslab/sdscale/internal/workload"
)

// Core wire-level types.
type (
	// Rates holds one operations-per-second value per operation class.
	Rates = wire.Rates
	// OpClass distinguishes data from metadata operations.
	OpClass = wire.OpClass
	// Rule is one stage's enforcement directive.
	Rule = wire.Rule
	// RuleAction selects how a stage applies a rule.
	RuleAction = wire.RuleAction
	// StageReport is one stage's metric sample.
	StageReport = wire.StageReport
	// JobReport is a per-job aggregate over many stages.
	JobReport = wire.JobReport
)

// Operation classes.
const (
	// ClassData is the data-path operation class (read/write IOPS).
	ClassData = wire.ClassData
	// ClassMeta is the metadata operation class (open, stat, ...).
	ClassMeta = wire.ClassMeta
)

// Rule actions.
const (
	// ActionSetLimit replaces a stage's rate limits.
	ActionSetLimit = wire.ActionSetLimit
	// ActionNoLimit removes rate limiting at a stage.
	ActionNoLimit = wire.ActionNoLimit
	// ActionPause blocks all I/O at a stage.
	ActionPause = wire.ActionPause
)

// Control plane.
type (
	// Global is the top-level controller (flat or hierarchical), and, with
	// fellows (AddPeer), one controller of the coordinated flat design (the
	// paper's §VI future work).
	Global = controller.Global
	// GlobalConfig configures a Global controller.
	GlobalConfig = controller.GlobalConfig
	// Aggregator is the mid-tier controller of the hierarchical design.
	Aggregator = controller.Aggregator
	// AggregatorConfig configures an Aggregator.
	AggregatorConfig = controller.AggregatorConfig
	// ControllerStats is the point-in-time operational snapshot every
	// controller kind exposes through its Stats method.
	ControllerStats = controller.ControllerStats
	// FanOutMode selects how a controller's collect and enforce phases
	// dispatch child requests (see FanOutPipelined and FanOutBlocking).
	FanOutMode = controller.FanOutMode
)

// Fan-out dispatch modes.
const (
	// FanOutPipelined streams every child request back-to-back from up to
	// GOMAXPROCS issuers and then harvests the responses — the default.
	FanOutPipelined = controller.FanOutPipelined
	// FanOutBlocking reproduces the paper prototype's bounded pool: FanOut
	// issuers with one call in flight each.
	FanOutBlocking = controller.FanOutBlocking
)

// Controller failover sentinels (see GlobalConfig's Standby, StandbyAddrs,
// LeaseTimeout and SyncInterval fields).
var (
	// ErrDeposed is returned by a controller's cycle loop once epoch
	// fencing proved a newer leader holds the control plane.
	ErrDeposed = controller.ErrDeposed
	// ErrStandby is returned when cycles are requested of a standby that
	// has not promoted itself.
	ErrStandby = controller.ErrStandby
)

// StartGlobal launches a global controller with its registration endpoint
// listening (ListenAddr defaults to ":0"). It is the primary entry point of
// the Start* constructor family — the manual-assembly path; a program that
// just wants a running control plane should declare a Topology and call
// StartTopology, which wraps this (a one-shard Topology is exactly one
// Global over the fleet).
func StartGlobal(cfg GlobalConfig) (*Global, error) { return controller.StartGlobal(cfg) }

// StartAggregator launches an aggregator controller (manual assembly; a
// Topology with AggregatorFanIn set deploys the whole tier declaratively).
func StartAggregator(cfg AggregatorConfig) (*Aggregator, error) {
	return controller.StartAggregator(cfg)
}

// Data plane.
type (
	// StageInfo identifies a stage to the control plane.
	StageInfo = stage.Info
	// StageConfig configures a virtual stage.
	StageConfig = stage.Config
	// VirtualStage is the paper's lightweight metric-responder stage.
	VirtualStage = stage.Virtual
	// EnforcingStageConfig configures an enforcing stage.
	EnforcingStageConfig = stage.EnforcingConfig
	// EnforcingStage rate limits real operations in front of a file
	// system.
	EnforcingStage = stage.Enforcing
)

// StartVirtualStage launches a virtual stage.
func StartVirtualStage(cfg StageConfig) (*VirtualStage, error) { return stage.StartVirtual(cfg) }

// StartEnforcingStage launches an enforcing stage.
func StartEnforcingStage(cfg EnforcingStageConfig) (*EnforcingStage, error) {
	return stage.StartEnforcing(cfg)
}

// RegisterStage announces a stage to a controller's registration endpoint
// for dynamic membership.
func RegisterStage(ctx context.Context, network Network, controllerAddr string, info StageInfo) error {
	return stage.Register(ctx, network, controllerAddr, info)
}

// Control algorithms.
type (
	// Algorithm computes per-job allocations from demands and capacity.
	Algorithm = controlalg.Algorithm
	// JobInput is one job's state as seen by an Algorithm.
	JobInput = controlalg.JobInput
	// JobAllocation is an Algorithm's output for one job.
	JobAllocation = controlalg.JobAllocation
)

// PSFA returns the paper's control algorithm: proportional sharing
// without false allocation.
func PSFA() Algorithm { return controlalg.PSFA{} }

// NewAlgorithm returns the named algorithm ("psfa", "uniform",
// "weighted-static", "maxmin").
func NewAlgorithm(name string) (Algorithm, error) { return controlalg.New(name) }

// Transports.
type (
	// Network abstracts dialing and listening; SimNet hosts and TCPNet
	// implement it.
	Network = transport.Network
	// SimNet is the in-process simulated network.
	SimNet = simnet.Net
	// SimNetConfig parameterizes a SimNet (latency model, connection
	// limits, per-host processing capacity).
	SimNetConfig = simnet.Config
	// SimHost is one endpoint of a SimNet; it implements Network.
	SimHost = simnet.Host
	// TCPNet is the real-TCP transport.
	TCPNet = tcpnet.Network
)

// NewSimNet creates a simulated network.
func NewSimNet(cfg SimNetConfig) *SimNet { return simnet.New(cfg) }

// NewTCPNet creates a TCP transport.
func NewTCPNet() *TCPNet { return tcpnet.New() }

// Workloads.
type (
	// Generator produces a stage's synthetic demand over time.
	Generator = workload.Generator
	// ConstantWorkload emits fixed demand.
	ConstantWorkload = workload.Constant
	// BurstyWorkload alternates high/low demand phases.
	BurstyWorkload = workload.Bursty
	// RampWorkload linearly grows demand.
	RampWorkload = workload.Ramp
)

// StressWorkload returns the paper's stress workload (§III-C).
func StressWorkload() Generator { return workload.Stress() }

// ParseWorkload builds a generator from a CLI spec such as
// "constant:1000,100" or "bursty:1000,100:2:2".
func ParseWorkload(spec string) (Generator, error) { return workload.Parse(spec) }

// Job simulation.
type (
	// JobPattern describes a simulated HPC job's I/O behaviour.
	JobPattern = jobsim.Pattern
	// SimulatedJob is a running simulated job driving an enforcing stage.
	SimulatedJob = jobsim.Job
	// JobStats snapshots a simulated job's progress.
	JobStats = jobsim.Stats
)

// StartJob launches a simulated job's ranks against an enforcing stage.
func StartJob(ctx context.Context, st *EnforcingStage, p JobPattern) *SimulatedJob {
	return jobsim.Start(ctx, st, p)
}

// CheckpointPattern returns the classic checkpoint/restart I/O pattern.
func CheckpointPattern(compute time.Duration, ops int) JobPattern {
	return jobsim.Checkpoint(compute, ops)
}

// MetadataHeavyPattern returns a small-file-swarm pattern where metadata
// operations dominate.
func MetadataHeavyPattern(files int) JobPattern { return jobsim.MetadataHeavy(files) }

// File system simulation.
type (
	// FileSystem is the Lustre-like shared PFS simulator.
	FileSystem = pfs.FileSystem
	// FileSystemConfig parameterizes the simulator.
	FileSystemConfig = pfs.Config
)

// NewFileSystem creates a simulated parallel file system.
func NewFileSystem(cfg FileSystemConfig) *FileSystem { return pfs.New(cfg) }

// Telemetry.
type (
	// Breakdown is one control cycle's phase timing.
	Breakdown = telemetry.Breakdown
	// Summary digests many cycles' latency statistics.
	Summary = telemetry.Summary
	// FaultCounters tracks a controller's fault handling: quarantines,
	// readmissions, degraded cycles, probes, and stale-report use.
	FaultCounters = telemetry.FaultCounters
	// FaultSummary is a point-in-time digest of FaultCounters.
	FaultSummary = telemetry.FaultSummary
	// PipelineStats instruments a controller's fan-out phases (in-flight
	// gauges, per-cycle allocation counts).
	PipelineStats = telemetry.PipelineStats
	// PipelineSnapshot is a point-in-time digest of PipelineStats,
	// included in ControllerStats.
	PipelineSnapshot = telemetry.PipelineSnapshot
)

// Tracing and the debug endpoint.
type (
	// Tracer records control-cycle, phase, and per-RPC spans into a
	// lock-free ring; a nil Tracer is a disabled one.
	Tracer = trace.Tracer
	// Span is one recorded trace entry.
	Span = trace.Span
	// TraceTotals are a tracer's cumulative counters, readable without
	// scanning the ring.
	TraceTotals = trace.Totals
	// ClusterTrace groups a traced deployment's tracers.
	ClusterTrace = cluster.ClusterTrace
	// DebugServer is the opt-in HTTP endpoint serving /metrics (Prometheus
	// text), /debug/vars, /debug/pprof and /debug/trace.
	DebugServer = trace.DebugServer
	// DebugOptions configures StartDebug; it binds loopback by default.
	DebugOptions = trace.DebugOptions
)

// NewTracer creates a tracer whose ring holds capacity spans (rounded up to
// a power of two; <= 0 selects the default).
func NewTracer(capacity int) *Tracer { return trace.New(capacity) }

// StartDebug binds the observability endpoint and serves it in the
// background.
func StartDebug(opts DebugOptions) (*DebugServer, error) { return trace.StartDebug(opts) }

// Deployment harness.
type (
	// ClusterConfig describes a deployment to build.
	ClusterConfig = cluster.Config
	// Design selects the control-plane design of a ClusterConfig. (It was
	// previously exported as Topology; that name now belongs to the
	// declarative deployment spec StartTopology consumes.)
	Design = cluster.Topology
	// RoleUsage is one controller role's resource consumption.
	RoleUsage = cluster.RoleUsage
	// UsageCollector measures per-role resource usage over a window.
	UsageCollector = cluster.UsageCollector
)

// Designs.
const (
	// Flat is the single-controller design (paper Fig. 2).
	Flat = cluster.Flat
	// Hierarchical adds aggregator controllers (paper Fig. 3).
	Hierarchical = cluster.Hierarchical
	// Coordinated is the multi-controller flat design with aggregate
	// exchange (paper §VI future work).
	Coordinated = cluster.Coordinated
)

// BuildCluster assembles a complete deployment over a fresh simulated
// network. It is the fully parameterized harness underneath StartTopology;
// prefer declaring a Topology unless a knob only ClusterConfig exposes is
// needed.
func BuildCluster(cfg ClusterConfig) (*Deployment, error) { return cluster.Build(cfg) }

// NewUsageCollector creates a per-role resource collector for a deployment.
func NewUsageCollector(d *Deployment) *UsageCollector { return cluster.NewUsageCollector(d) }

// ExperimentNet returns the calibrated simulated-network model the
// paper-reproduction experiments use (per-host message processing costs,
// default connection limits).
func ExperimentNet() SimNetConfig { return experiment.DefaultNet() }

package controller

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"github.com/dsrhaslab/sdscale/internal/controlalg"
	"github.com/dsrhaslab/sdscale/internal/metrics"
	"github.com/dsrhaslab/sdscale/internal/monitor"
	"github.com/dsrhaslab/sdscale/internal/rpc"
	"github.com/dsrhaslab/sdscale/internal/stage"
	"github.com/dsrhaslab/sdscale/internal/store"
	"github.com/dsrhaslab/sdscale/internal/telemetry"
	"github.com/dsrhaslab/sdscale/internal/trace"
	"github.com/dsrhaslab/sdscale/internal/transport"
	"github.com/dsrhaslab/sdscale/internal/wire"
)

// ErrNoChildren is returned by RunCycle when the controller manages nothing.
var ErrNoChildren = errors.New("controller: no children to manage")

// GlobalConfig configures a global controller.
type GlobalConfig struct {
	// Network is the transport used to dial children and to listen for
	// registrations.
	Network transport.Network
	// ListenAddr is the registration endpoint where stages announce
	// themselves for dynamic membership (flat design). Empty selects ":0",
	// an auto-assigned port.
	ListenAddr string
	// Algorithm is the control algorithm run in the compute phase. Nil
	// selects PSFA.
	Algorithm controlalg.Algorithm
	// Capacity is the administrator-configured maximum operation rate of
	// the shared PFS, per class (paper §III-C).
	Capacity wire.Rates
	// FanOut bounds the controller's request-dispatch parallelism. Zero
	// selects DefaultFanOut. It only bounds the collect/enforce phases in
	// FanOutBlocking mode; probes, health sweeps, and adoption dials always
	// honor it.
	FanOut int
	// FanOutMode selects the collect/enforce dispatch strategy: the zero
	// value, FanOutPipelined, streams all child requests back-to-back over
	// the per-child connections and harvests responses as they arrive;
	// FanOutBlocking restores the paper prototype's bounded blocking pool
	// (one parked goroutine per call, FanOut wide), which the
	// paper-reproduction presets select explicitly.
	FanOutMode FanOutMode
	// CallTimeout bounds each child RPC. Zero selects 10 seconds.
	CallTimeout time.Duration
	// MaxFailures is the consecutive-failure threshold that trips a
	// child's circuit breaker into quarantine. Zero selects
	// DefaultMaxFailures.
	MaxFailures int
	// ProbeInterval is the base interval between half-open heartbeat
	// probes to a quarantined child; it doubles after each failed probe up
	// to MaxProbeInterval. Zeros select DefaultProbeInterval and
	// DefaultMaxProbeInterval.
	ProbeInterval    time.Duration
	MaxProbeInterval time.Duration
	// StaleAfter bounds how old a quarantined child's last-known report
	// may be and still feed a degraded cycle. Zero selects
	// DefaultStaleAfter.
	StaleAfter time.Duration
	// EvictAfter, if positive, permanently evicts a child that has been
	// quarantined for this long without passing a probe. Zero (the
	// default) never evicts: a child that recovers is always readmitted.
	EvictAfter time.Duration
	// DeltaEnforcement skips the enforce message to a child whose rules
	// did not change since the last cycle. The paper's stress workload
	// deliberately re-enforces everything every cycle (§III-C), so the
	// reproduction experiments leave this off; the ablation benchmarks
	// quantify what delta enforcement would save for stable workloads.
	DeltaEnforcement bool
	// Incremental switches the flat control cycle to the event-driven
	// path: stages push report deltas when their rates move (see
	// stage.Config.PushThreshold), the controller folds them into a
	// per-child report cache and dirty set, and each cycle explicitly
	// collects only the edge cases — children that never reported, whose
	// cache aged past IncrementalFloor, that re-registered or were
	// readmitted from quarantine, or whose connection is detached (no push
	// can arrive on it, so it is collected explicitly). When nothing is
	// dirty the whole cycle short-circuits.
	// Incremental mode implies delta enforcement and requires
	// FanOutPipelined; with FanOutBlocking — the paper-reproduction
	// configuration — the full cycle runs unchanged. Hierarchical
	// topologies also keep the full cycle: aggregator children answer
	// collects from their own caches instead (AggregatorConfig.Incremental).
	Incremental bool
	// IncrementalFloor bounds how old a child's cached report may grow
	// before an incremental cycle collects from it explicitly — the
	// heartbeat floor that makes a silent child distinguishable from an
	// unchanged one. It must exceed the stage-side push floor
	// (stage.Config.PushFloor), or live children get pointlessly
	// re-collected. Zero selects StaleAfter.
	IncrementalFloor time.Duration
	// Delegated enables the §VI delegated hierarchy: instead of computing
	// and shipping per-stage rules, the controller ships per-job capacity
	// budgets to each aggregator (payload O(jobs) instead of O(stages))
	// and the aggregators — which must run with
	// AggregatorConfig.LocalControl — compute the per-stage rules
	// themselves. Hierarchical topologies only.
	Delegated bool
	// Meter, if non-nil, is charged with all the controller's traffic.
	Meter *transport.Meter
	// CPU, if non-nil, is charged with the controller's busy time.
	CPU *monitor.CPUMeter
	// Tracer, if non-nil, records control-cycle spans: one root span per
	// cycle, one per phase, and one per child RPC (tagged with the child's
	// ID). The tracer carries per-phase cycle context, so it must be
	// exclusive to this controller.
	Tracer *trace.Tracer
	// Logf, if non-nil, receives operational logs.
	Logf func(format string, args ...any)

	// Epoch is the controller's initial leadership epoch. Leave zero for
	// deployments without a standby; with one, the primary conventionally
	// starts at 1 and a promoting standby always bumps past the highest
	// epoch it mirrored.
	Epoch uint64
	// ID identifies this controller in quorum vote traffic and StateSync
	// PrimaryID fields. Controllers in one quorum should carry distinct
	// IDs; zero is accepted for single-controller deployments.
	ID uint64
	// StandbyAddr, if non-empty, is the warm standby's registration
	// address: the controller replicates its state there every
	// SyncInterval, which doubles as the leadership lease renewal.
	// Shorthand for a one-element StandbyAddrs.
	StandbyAddr string
	// StandbyAddrs lists the registration addresses of every other
	// controller in the leadership quorum. A primary replicates state to
	// all of them each SyncInterval; a standby whose lease expires asks
	// all of them for votes and promotes only on a majority of the quorum
	// (the addressed controllers plus itself). A standby with an empty
	// list keeps the single-standby behaviour: promote directly on lease
	// expiry.
	StandbyAddrs []string
	// Store, if non-nil, is the controller's durability layer: mutations
	// (membership, enforced rules, job weights, leadership epochs and
	// votes) are appended to its write-ahead log before they are acked,
	// and Recover rebuilds a cold-started controller from it. The
	// controller takes ownership and closes it on Close.
	Store *store.Store
	// Standby makes this controller a passive warm standby: it accepts
	// StateSync from the primary (mirroring membership, last rules, and
	// job weights), rejects registrations with CodeNotLeader, and
	// promotes itself with a bumped epoch when the lease expires.
	Standby bool
	// LeaseTimeout is how long a standby waits without a StateSync before
	// promoting itself (and the lease duration a primary grants with each
	// sync). Zero selects DefaultLeaseTimeout.
	LeaseTimeout time.Duration
	// SyncInterval is how often a primary replicates state to
	// StandbyAddr. Zero selects DefaultSyncInterval.
	SyncInterval time.Duration
}

func (c GlobalConfig) withDefaults() GlobalConfig {
	if c.ListenAddr == "" {
		c.ListenAddr = ":0"
	}
	if c.Algorithm == nil {
		c.Algorithm = controlalg.PSFA{}
	}
	if c.FanOut <= 0 {
		c.FanOut = DefaultFanOut
	}
	if c.CallTimeout <= 0 {
		c.CallTimeout = 10 * time.Second
	}
	if c.MaxFailures <= 0 {
		c.MaxFailures = DefaultMaxFailures
	}
	if c.SyncInterval <= 0 {
		c.SyncInterval = DefaultSyncInterval
	}
	if c.LeaseTimeout <= 0 {
		c.LeaseTimeout = DefaultLeaseTimeout
	}
	if c.StandbyAddr != "" {
		found := false
		for _, a := range c.StandbyAddrs {
			if a == c.StandbyAddr {
				found = true
				break
			}
		}
		if !found {
			c.StandbyAddrs = append([]string{c.StandbyAddr}, c.StandbyAddrs...)
		}
	}
	return c
}

// Global is the top-level controller. Its children are either stages (flat
// design) or aggregators (hierarchical design); mixing is rejected.
type Global struct {
	// stageCore is the child-facing half of the controller: membership,
	// breaker, fan-outs, the cycle frame and arena (see core.go).
	stageCore
	cfg      GlobalConfig
	recorder *telemetry.CycleRecorder
	regSrv   *rpc.Server

	// Primary-side state-sync loop (StandbyAddr set).
	syncCancel context.CancelFunc
	syncDone   chan struct{}

	// Incremental-mode progress marks, owned by the goroutine running
	// RunCycle: incrReady is set once a full compute+enforce pass completed,
	// and incrMembers is the membership epoch that pass covered — the
	// quiesced short-circuit requires both, so a membership change always
	// forces a recompute.
	incrReady   bool
	incrMembers uint64

	mu         sync.Mutex
	cycle      uint64
	jobWeights map[uint64]float64
	lastJobs   []JobStatus
	mode       wire.Role // RoleStage or RoleAggregator once first child added
	// capacity is the live copy of cfg.Capacity; SetCapacity retunes it on
	// a running controller (shard resizes re-split the global budget), so
	// compute phases read it under mu rather than from cfg.
	capacity wire.Rates
	// Leadership state (all under mu): epoch is the current leadership
	// term; deposed is set once a stale-epoch rejection proves a newer
	// leader exists; promoted marks a standby that has taken over;
	// votedEpoch is the highest epoch this controller promised a quorum
	// vote for (persisted through the store before any grant leaves the
	// process).
	epoch      uint64
	deposed    bool
	promoted   bool
	votedEpoch uint64
	// Standby mirror: the last StateSync received, the lease deadline it
	// renewed, and when it arrived. gapStart carries the control-gap
	// measurement from promotion to the first completed cycle.
	mirror      *wire.StateSync
	leaseUntil  time.Time
	lastSyncAt  time.Time
	gapStart    time.Time
	fencedSyncs uint64
	// Log-once latches for repeating operational conditions.
	defaultedLeaseLogged bool
	storeErrLogged       bool
	// shardTable, when set by the sharding layer, answers ShardQuery
	// requests on the registration endpoint and guards Register against
	// adopting another shard's child (see SetShardTable); shardSelf is the
	// shard this controller serves.
	shardTable func(childID uint64) *wire.ShardMap
	shardSelf  int
}

// StartGlobal launches a global controller with its registration endpoint
// listening: cfg.ListenAddr defaults to ":0" (auto-assigned), so children can
// always register dynamically and a standby can always receive StateSync.
func StartGlobal(cfg GlobalConfig) (*Global, error) {
	cfg = cfg.withDefaults()
	g := &Global{
		cfg:        cfg,
		recorder:   telemetry.NewCycleRecorder(),
		jobWeights: make(map[uint64]float64),
		epoch:      cfg.Epoch,
		capacity:   cfg.Capacity,
	}
	opts := stageOpts{
		who: "controller", network: cfg.Network,
		fanMode: cfg.FanOutMode, par: cfg.FanOut, callTimeout: cfg.CallTimeout,
		breaker: breakerConfig{MaxFailures: cfg.MaxFailures, ProbeInterval: cfg.ProbeInterval,
			MaxProbeInterval: cfg.MaxProbeInterval, StaleAfter: cfg.StaleAfter, EvictAfter: cfg.EvictAfter},
		incremental: cfg.Incremental, floor: cfg.IncrementalFloor, delta: cfg.DeltaEnforcement,
		meter: cfg.Meter, cpu: cfg.CPU, tracer: cfg.Tracer, logFn: cfg.Logf,
		onCallError: g.noteCallError,
	}
	if cfg.Store != nil {
		opts.walRules, opts.walEvict = g.logRules, g.logEvict
	}
	g.init(opts)
	if cfg.Store != nil {
		// The store's recovered epochs are a floor: this controller must
		// never lead with — or vote for — an epoch the disk has already
		// seen. (Recover additionally adopts the recovered state; here we
		// only refuse to regress.)
		rec := cfg.Store.Recovered()
		if rec.Epoch > g.epoch {
			g.epoch = rec.Epoch
		}
		g.votedEpoch = rec.VotedEpoch
		if !cfg.Standby && g.epoch > rec.Epoch {
			// A fresh primary with a configured epoch: fence it through
			// the store before leading with it.
			if err := cfg.Store.AppendEpoch(g.epoch); err != nil {
				return nil, fmt.Errorf("controller: persist initial epoch: %w", err)
			}
		}
	}
	if cfg.Standby {
		// A standby that never hears from a primary at all still promotes
		// once the initial lease runs out.
		g.leaseUntil = time.Now().Add(cfg.LeaseTimeout)
	}
	srv, err := rpc.Serve(cfg.Network, cfg.ListenAddr, rpc.HandlerFunc(g.serveRegistration), rpc.ServerOptions{
		Meter:  cfg.Meter,
		Logf:   cfg.Logf,
		Tracer: cfg.Tracer,
	})
	if err != nil {
		return nil, fmt.Errorf("controller: registration endpoint: %w", err)
	}
	g.regSrv = srv
	if len(cfg.StandbyAddrs) > 0 && !cfg.Standby {
		g.startSync()
	}
	return g, nil
}

// storeFault logs a store append failure (once, then counts silently) —
// durability degrades, but the control plane keeps running: halting every
// cycle because the log disk died would turn a durability fault into an
// availability outage.
func (g *Global) storeFault(op string, err error) {
	g.mu.Lock()
	logged := g.storeErrLogged
	g.storeErrLogged = true
	g.mu.Unlock()
	if !logged {
		g.logf("controller: store: %s: %v (durability degraded; further store errors suppressed)", op, err)
	}
}

// logRules appends one child's just-enforced rule batch to the store.
func (g *Global) logRules(cycle, childID uint64, rules []wire.Rule) {
	if g.cfg.Store == nil || len(rules) == 0 {
		return
	}
	if err := g.cfg.Store.AppendRules(cycle, childID, rules); err != nil {
		g.storeFault("append rules", err)
	}
}

// logRegister appends a member registration to the store.
func (g *Global) logRegister(c *child) {
	if g.cfg.Store == nil {
		return
	}
	m := wire.MemberState{
		Role:   c.role,
		ID:     c.info.ID,
		JobID:  c.info.JobID,
		Weight: c.info.Weight,
		Addr:   c.info.Addr,
	}
	if stages := c.stageList(); len(stages) > 0 {
		m.Stages = make([]wire.StageEntry, len(stages))
		for k, s := range stages {
			m.Stages[k] = wire.StageEntry{ID: s.ID, JobID: s.JobID, Weight: s.Weight, Addr: s.Addr}
		}
	}
	if err := g.cfg.Store.AppendRegister(m); err != nil {
		g.storeFault("append register", err)
	}
}

// logEvict appends a member eviction to the store.
func (g *Global) logEvict(id uint64) {
	if g.cfg.Store == nil {
		return
	}
	if err := g.cfg.Store.AppendEvict(id); err != nil {
		g.storeFault("append evict", err)
	}
}

// Addr returns the registration endpoint address.
func (g *Global) Addr() string { return g.regSrv.Addr().String() }

// Recorder returns the controller's cycle-latency recorder.
func (g *Global) Recorder() *telemetry.CycleRecorder { return g.recorder }

// NumChildren returns the number of directly managed children.
func (g *Global) NumChildren() int { return g.members.size() }

// NumStages returns the number of stages managed across the whole control
// plane (directly in flat mode, through aggregators in hierarchical mode).
func (g *Global) NumStages() int {
	var n int
	for _, c := range g.members.snapshot() {
		if c.role == wire.RoleStage {
			n++
		} else {
			n += c.numStages()
		}
	}
	return n
}

// setMode fixes the topology kind on first use and rejects mixing.
func (g *Global) setMode(role wire.Role) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.mode == 0 {
		g.mode = role
		return nil
	}
	if g.mode != role {
		return fmt.Errorf("controller: cannot mix %s and %s children", g.mode, role)
	}
	return nil
}

// Mode returns the topology kind (RoleStage for flat, RoleAggregator for
// hierarchical), or 0 before any child is added.
func (g *Global) Mode() wire.Role {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.mode
}

// noteJob records a job's weight from a stage registration, logging actual
// changes to the store (re-registrations with an unchanged weight append
// nothing).
func (g *Global) noteJob(jobID uint64, weight float64) {
	if weight <= 0 {
		weight = 1
	}
	g.mu.Lock()
	old, known := g.jobWeights[jobID]
	g.jobWeights[jobID] = weight
	g.mu.Unlock()
	if g.cfg.Store != nil && (!known || old != weight) {
		if err := g.cfg.Store.AppendWeight(jobID, weight); err != nil {
			g.storeFault("append weight", err)
		}
	}
}

// AddStage connects the controller to a data-plane stage (flat design).
func (g *Global) AddStage(ctx context.Context, info stage.Info) error {
	if err := g.setMode(wire.RoleStage); err != nil {
		return err
	}
	c, err := g.addChild(ctx, wire.RoleStage, info, nil)
	if err != nil {
		return err
	}
	g.logRegister(c)
	g.noteJob(info.JobID, info.Weight)
	return nil
}

// AddAggregator connects the controller to an aggregator (hierarchical
// design). stages lists the stages the aggregator manages; the global
// controller needs them because it computes rules for every stage (paper
// §IV-B) and must know each job's stage population.
func (g *Global) AddAggregator(ctx context.Context, id uint64, addr string, stages []stage.Info) error {
	if err := g.setMode(wire.RoleAggregator); err != nil {
		return err
	}
	c, err := g.addChild(ctx, wire.RoleAggregator, stage.Info{ID: id, Addr: addr}, stages)
	if err != nil {
		return err
	}
	g.logRegister(c)
	for _, s := range stages {
		g.noteJob(s.JobID, s.Weight)
	}
	return nil
}

// AttachAggregator connects to a remotely deployed aggregator, queries the
// stages it manages, and adds it to the hierarchical control plane. It is
// the multi-host (sdsctl) counterpart of AddAggregator, which requires the
// stage list up front.
func (g *Global) AttachAggregator(ctx context.Context, id uint64, addr string) error {
	cli, err := rpc.Dial(ctx, g.cfg.Network, addr, rpc.DialOptions{Meter: g.cfg.Meter})
	if err != nil {
		return fmt.Errorf("controller: probe aggregator at %s: %w", addr, err)
	}
	resp, err := cli.Call(ctx, &wire.StageList{})
	cli.Close()
	if err != nil {
		return fmt.Errorf("controller: stage list from %s: %w", addr, err)
	}
	list, ok := resp.(*wire.StageListReply)
	if !ok {
		return fmt.Errorf("controller: unexpected %s from %s", resp.Type(), addr)
	}
	stages := make([]stage.Info, len(list.Stages))
	for i, s := range list.Stages {
		stages[i] = stage.Info{ID: s.ID, JobID: s.JobID, Weight: s.Weight, Addr: s.Addr}
	}
	return g.AddAggregator(ctx, id, addr, stages)
}

// RemoveChild evicts a child by ID, closing its connection.
func (g *Global) RemoveChild(id uint64) bool {
	c := g.members.remove(id)
	if c == nil {
		return false
	}
	c.client().Close()
	g.logEvict(id)
	return true
}

// serveRegistration handles the dynamic-membership endpoint: stages (and,
// in hierarchical mode, aggregators) register, the controller dials them
// back and adds them to the control plane. The same endpoint carries the
// primary→standby StateSync stream.
func (g *Global) serveRegistration(peer *rpc.Peer, req wire.Message) (wire.Message, error) {
	switch m := req.(type) {
	case *wire.Register:
		return g.handleRegister(m)
	case *wire.StateSync:
		return g.handleStateSync(m)
	case *wire.VoteRequest:
		return g.handleVoteRequest(m)
	case *wire.ShardQuery:
		return g.handleShardQuery(m)
	case *wire.Heartbeat:
		return &wire.HeartbeatAck{EchoUnixMicros: m.SentUnixMicros}, nil
	}
	return nil, fmt.Errorf("controller: unexpected %s", req.Type())
}

// handleRegister admits new children and treats a duplicate registration
// from a known child ID as a reconnect: the stale connection is replaced and
// the breaker state kept, so a child that rebooted — or re-homed to a
// promoted standby — resumes service without a second identity. Acks carry
// the leadership epoch, which re-homing children adopt as their fencing
// floor.
func (g *Global) handleRegister(m *wire.Register) (wire.Message, error) {
	g.mu.Lock()
	passive := g.cfg.Standby && !g.promoted
	epoch := g.epoch
	g.mu.Unlock()
	if passive {
		// An unpromoted standby is not the leader; children walk their
		// parent list and retry until promotion.
		return nil, &wire.ErrorReply{Code: wire.CodeNotLeader, Text: "standby has not been promoted", Epoch: epoch}
	}
	ctx, cancel := context.WithTimeout(context.Background(), g.cfg.CallTimeout)
	defer cancel()
	if c := g.members.get(m.ID); c != nil && c.role == m.Role {
		if err := g.reRegister(ctx, c, m.Addr); err != nil {
			return nil, err
		}
		return &wire.RegisterAck{ID: m.ID, Epoch: g.Epoch()}, nil
	}
	switch m.Role {
	case wire.RoleStage:
		// In a sharded deployment the shard table decides who may adopt
		// this child. Without the guard, a registration retry that lags a
		// completed handoff would re-add the child here while the
		// destination shard owns it at a higher epoch — the child would
		// fence this shard's every call, reading as a deposition.
		if owner, ok := g.shardOwner(m.ID); !ok {
			return nil, &wire.ErrorReply{Code: wire.CodeNotLeader,
				Text: fmt.Sprintf("stage %d belongs to shard %d", m.ID, owner), Epoch: epoch}
		}
		info := stage.Info{ID: m.ID, JobID: m.JobID, Weight: m.Weight, Addr: m.Addr}
		if err := g.AddStage(ctx, info); err != nil {
			return nil, err
		}
	case wire.RoleAggregator:
		// Aggregators join dynamically only once the control plane is
		// already hierarchical (a promoted standby whose mirror held
		// aggregators): a fresh global does not let a child pick its
		// topology.
		if g.Mode() != wire.RoleAggregator {
			return nil, &wire.ErrorReply{Code: wire.CodeBadMessage, Text: "only stages may register dynamically"}
		}
		if err := g.AttachAggregator(ctx, m.ID, m.Addr); err != nil {
			return nil, err
		}
	default:
		return nil, &wire.ErrorReply{Code: wire.CodeBadMessage, Text: "only stages may register dynamically"}
	}
	g.logf("controller: %s %d registered from %s", m.Role, m.ID, m.Addr)
	return &wire.RegisterAck{ID: m.ID, Epoch: g.Epoch()}, nil
}

// noteCallError is the core's failed-call hook: a child that fenced the call
// proves a newer leader owns it, so this controller stops leading.
func (g *Global) noteCallError(c *child, err error) {
	if cur, ok := rpc.StaleEpochError(err); ok {
		g.faults.FencedCall()
		g.stepDown(fmt.Sprintf("child %d fenced a call, current epoch is %d", c.info.ID, cur))
	}
}

// JobStatus is one job's state as of the controller's most recent cycle.
type JobStatus struct {
	// JobID identifies the job.
	JobID uint64
	// Weight is the job's QoS weight.
	Weight float64
	// Stages is the job's stage population seen in the last collect.
	Stages uint32
	// Demand is the job's aggregate demand from the last collect.
	Demand wire.Rates
	// Allocated is the cluster-wide limit the last compute granted.
	Allocated wire.Rates
}

// JobStatuses returns the per-job view of the most recent control cycle,
// sorted by job ID — the operator-facing answer to "who is getting what".
// It is empty before the first cycle completes.
func (g *Global) JobStatuses() []JobStatus {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]JobStatus, len(g.lastJobs))
	copy(out, g.lastJobs)
	return out
}

// recordJobStatuses stores the cycle's per-job view. Inputs arrive in the
// algorithm's input order; allocs is index-aligned.
func (g *Global) recordJobStatuses(inputs []controlalg.JobInput, allocs []controlalg.JobAllocation) {
	statuses := make([]JobStatus, len(inputs))
	for i := range inputs {
		statuses[i] = JobStatus{
			JobID:     inputs[i].JobID,
			Weight:    inputs[i].Weight,
			Stages:    inputs[i].Stages,
			Demand:    inputs[i].Demand,
			Allocated: allocs[i].Limit,
		}
	}
	sort.Slice(statuses, func(a, b int) bool { return statuses[a].JobID < statuses[b].JobID })
	g.mu.Lock()
	g.lastJobs = statuses
	g.mu.Unlock()
}

// Health is the outcome of a heartbeat sweep over a controller's children.
type Health struct {
	// Responsive and Unresponsive count children by heartbeat outcome.
	Responsive, Unresponsive int
	// MinRTT, MeanRTT and MaxRTT summarize responsive children's
	// round-trip times.
	MinRTT, MeanRTT, MaxRTT time.Duration
}

// sweepHealth heartbeats the given children with bounded parallelism. One
// shared heartbeat body serves the whole sweep: round-trip times come from
// each call's local issue time, not the echoed timestamp, so sharing the
// body does not skew them.
func sweepHealth(ctx context.Context, children []*child, fanOut int, timeout time.Duration) Health {
	if len(children) == 0 {
		return Health{}
	}
	rtts := make([]time.Duration, len(children))
	ok := make([]bool, len(children))
	hb := rpc.NewSharedFrame(&wire.Heartbeat{SentUnixMicros: time.Now().UnixMicro()})
	defer hb.Release()
	rpc.Scatter(ctx, len(children), fanOut, func(i int) {
		cctx, cancel := context.WithTimeout(ctx, timeout)
		defer cancel()
		start := time.Now()
		resp, err := children[i].client().GoShared(cctx, hb).Wait(cctx)
		if err != nil {
			return
		}
		if _, isAck := resp.(*wire.HeartbeatAck); isAck {
			rtts[i] = time.Since(start)
			ok[i] = true
		}
	})
	var h Health
	var sum time.Duration
	for i := range children {
		if !ok[i] {
			h.Unresponsive++
			continue
		}
		h.Responsive++
		sum += rtts[i]
		if h.MinRTT == 0 || rtts[i] < h.MinRTT {
			h.MinRTT = rtts[i]
		}
		if rtts[i] > h.MaxRTT {
			h.MaxRTT = rtts[i]
		}
	}
	if h.Responsive > 0 {
		h.MeanRTT = sum / time.Duration(h.Responsive)
	}
	return h
}

// RunCycle executes one complete control cycle and returns its phase
// breakdown. It is the unit the paper's latency figures measure.
//
// Children behind a tripped circuit breaker are skipped by the collect and
// enforce scatter; the cycle proceeds in degraded mode on their last-known
// reports (up to StaleAfter old) and half-open heartbeat probes readmit
// them once they recover, so a flapping child never stalls the cycle and
// never needs manual re-registration.
func (g *Global) RunCycle(ctx context.Context) (telemetry.Breakdown, error) {
	g.mu.Lock()
	if g.deposed {
		epoch := g.epoch
		g.mu.Unlock()
		return telemetry.Breakdown{}, fmt.Errorf("%w (was leading at epoch %d)", ErrDeposed, epoch)
	}
	if g.cfg.Standby && !g.promoted {
		epoch := g.epoch
		g.mu.Unlock()
		return telemetry.Breakdown{}, fmt.Errorf("%w (passive mirror at epoch %d)", ErrStandby, epoch)
	}
	probeCycle, probeEpoch := g.cycle+1, g.epoch
	g.mu.Unlock()
	var mode wire.Role
	b, err := g.runCycle(ctx, probeCycle, probeEpoch,
		func() (cycle, epoch uint64) {
			g.mu.Lock()
			defer g.mu.Unlock()
			g.cycle++
			mode = g.mode
			return g.cycle, g.epoch
		},
		func(ctx context.Context, cycle, epoch uint64, active, quarantined []*child) (telemetry.Breakdown, error) {
			if mode == wire.RoleAggregator {
				return g.runHierarchicalCycle(ctx, cycle, epoch, active, quarantined)
			}
			return g.runFlatCycle(ctx, cycle, epoch, active, quarantined)
		})
	if err != nil {
		return b, err
	}
	g.recorder.Record(b)
	g.mu.Lock()
	gapStart := g.gapStart
	g.gapStart = time.Time{}
	g.mu.Unlock()
	if !gapStart.IsZero() {
		g.faults.RecordControlGap(time.Since(gapStart))
	}
	return b, nil
}

// runFlatCycle: gather the stages' reports, compute, enforce one rule per
// stage that reported (see DESIGN.md §6 for what Incremental,
// DeltaEnforcement and FanOutMode select inside the two shared halves). In
// incremental mode, when nothing is dirty, membership has not changed, and a
// full compute+enforce pass already ran, the cycle short-circuits entirely:
// the rules the stages hold are still exactly the rules this cycle would
// compute.
func (g *Global) runFlatCycle(ctx context.Context, cycle, epoch uint64, children, quarantined []*child) (telemetry.Breakdown, error) {
	var b telemetry.Breakdown
	memberEpoch := g.members.currentEpoch()

	ph := g.beginPhase(trace.PhaseCollect, cycle, epoch)
	reports, idle := g.gatherReports(ctx, wire.Collect{Cycle: cycle, WindowMicros: 1_000_000, Epoch: epoch},
		children, quarantined, g.incrReady && g.incrMembers == memberEpoch)
	b.Collect = g.endPhase(ph)
	if idle {
		g.pipe.AddSuppressedEnforces(uint64(len(children)))
	}
	if idle || ctx.Err() != nil {
		return b, ctx.Err()
	}

	// The blocking fan-out pins the single-threaded kernel the paper's
	// prototype implies.
	ph = g.beginPhase(trace.PhaseCompute, cycle, epoch)
	rules := g.computeFlatRules(reports, g.cfg.FanOutMode == FanOutPipelined)
	g.busy(ph.start)
	b.Compute = g.endPhase(ph)

	ph = g.beginPhase(trace.PhaseEnforce, cycle, epoch)
	g.enforceStageRules(ctx, cycle, epoch, children, rules.Rules(), nil)
	b.Enforce = g.endPhase(ph)
	g.incrReady, g.incrMembers = true, memberEpoch
	return b, ctx.Err()
}

// runHierarchicalCycle: collect pre-aggregated reports from active
// aggregators, compute, push per-stage rule batches back through them.
// Quarantined aggregators contribute their last-known aggregates (degraded
// mode) but receive no traffic.
func (g *Global) runHierarchicalCycle(ctx context.Context, cycle, epoch uint64, children, quarantined []*child) (telemetry.Breakdown, error) {
	var b telemetry.Breakdown
	n := len(children)

	// Phase 1: collect.
	ph := g.beginPhase(trace.PhaseCollect, cycle, epoch)
	replies := g.cyc.aggReplies.Take(&g.arena, n)
	req := rpc.NewSharedFrame(&wire.Collect{Cycle: cycle, WindowMicros: 1_000_000, Epoch: epoch})
	g.fanOutBroadcast(ctx, g.cycleFan(&g.pipe.CollectInFlight), children, req,
		func(i int, resp wire.Message, _ error) {
			switch resp.(type) {
			case *wire.CollectAggReply, *wire.CollectReply:
				replies[i] = resp
				children[i].noteReport(resp, time.Now())
			}
		})
	b.Collect = g.endPhase(ph)
	if ctx.Err() != nil {
		return b, ctx.Err()
	}

	// Phase 2: compute. The global normally sees per-job aggregates
	// (paper §III-B), so allocations are split uniformly across each
	// job's stages; the per-aggregator rule batches cover every stage.
	// Raw per-stage replies (aggregators in ForwardRaw ablation mode) are
	// aggregated here instead, charging this controller's CPU.
	ph = g.beginPhase(trace.PhaseCompute, cycle, epoch)
	groups := make([][]wire.JobReport, 0, n)
	responded := g.cyc.responded.Take(&g.arena, n)
	for i, r := range replies {
		switch r := r.(type) {
		case *wire.CollectAggReply:
			groups = append(groups, r.Jobs)
			responded[i] = true
		case *wire.CollectReply:
			groups = append(groups, metrics.AggregateByJob(r.Reports))
			responded[i] = true
		}
	}
	_, stale := g.appendStale(nil, nil, quarantined)
	for _, m := range stale {
		switch r := m.(type) {
		case *wire.CollectAggReply:
			groups = append(groups, r.Jobs)
		case *wire.CollectReply:
			groups = append(groups, metrics.AggregateByJob(r.Reports))
		}
	}
	merged := metrics.MergeJobReports(groups...)
	inputs := g.cyc.inputs.Take(&g.arena, len(merged))
	g.mu.Lock()
	for i, j := range merged {
		inputs[i] = controlalg.JobInput{
			JobID:  j.JobID,
			Weight: g.jobWeights[j.JobID],
			Demand: j.Demand,
			Stages: j.Stages,
		}
	}
	capacity := g.capacity
	g.mu.Unlock()
	allocs := g.cfg.Algorithm.Allocate(inputs, capacity)
	g.recordJobStatuses(inputs, allocs)

	perStage := make(map[uint64]wire.Rates, len(allocs))
	for i, a := range allocs {
		perStage[a.JobID] = controlalg.SplitUniform(a.Limit, int(merged[i].Stages))
	}

	// Build each aggregator's enforcement payload: per-stage rule batches
	// normally, or per-job budgets in delegated mode (§VI), where the
	// aggregators split budgets over stages themselves.
	batches := make([][]wire.Rule, n)
	budgets := make([][]wire.JobBudget, n)
	for i, c := range children {
		if !responded[i] {
			continue // skip unresponsive aggregators this cycle
		}
		stages := c.stageList()
		if g.cfg.Delegated {
			counts := make(map[uint64]int)
			for _, s := range stages {
				counts[s.JobID]++
			}
			budget := make([]wire.JobBudget, 0, len(counts))
			for _, a := range allocs {
				cnt := counts[a.JobID]
				if cnt == 0 {
					continue
				}
				budget = append(budget, wire.JobBudget{
					JobID: a.JobID,
					Limit: perStage[a.JobID].Scale(float64(cnt)),
				})
			}
			budgets[i] = budget
			continue
		}
		batch := g.cyc.ruleBuf.Take(&g.arena, len(stages))[:0]
		for _, s := range stages {
			limit, ok := perStage[s.JobID]
			if !ok {
				continue
			}
			batch = append(batch, wire.Rule{
				StageID: s.ID,
				JobID:   s.JobID,
				Action:  wire.ActionSetLimit,
				Limit:   limit,
			})
		}
		batches[i] = batch
	}
	g.busy(ph.start)
	b.Compute = g.endPhase(ph)

	// Phase 3: enforce via aggregators. The incremental regime lives in the
	// aggregators here, so only the configured DeltaEnforcement diffs.
	ph = g.beginPhase(trace.PhaseEnforce, cycle, epoch)
	g.fanOutCalls(ctx, g.cycleFan(&g.pipe.EnforceInFlight), children,
		func(ctx context.Context, i int) *rpc.Call {
			if g.cfg.Delegated {
				if len(budgets[i]) == 0 {
					return nil
				}
				return children[i].client().Go(ctx, &wire.Delegate{Cycle: cycle, Budgets: budgets[i]})
			}
			batches[i] = g.sendable(cycle, children[i], batches[i], g.cfg.DeltaEnforcement)
			if len(batches[i]) == 0 {
				return nil
			}
			return children[i].client().Go(ctx, &wire.Enforce{Cycle: cycle, Rules: batches[i], Epoch: epoch})
		},
		func(i int, _ wire.Message, err error) {
			if err != nil {
				// As in enforceStageRules: the cache must not keep rules
				// whose delivery is unknown.
				children[i].forgetRules(batches[i])
			}
		})
	b.Enforce = g.endPhase(ph)
	return b, ctx.Err()
}

// Run executes control cycles until ctx ends. A zero interval runs the
// paper's stress workload (back-to-back cycles); otherwise each cycle
// starts interval after the previous one started. A standby first waits
// passively for its leadership lease to expire, then promotes itself and
// runs cycles as the new primary; a deposed primary returns ErrDeposed.
func (g *Global) Run(ctx context.Context, interval time.Duration) error {
	if g.cfg.Standby {
		if err := g.runStandby(ctx); err != nil {
			return err
		}
	}
	return runLoop(ctx, interval, g.RunCycle)
}

// MemoryFootprint estimates the controller's state size in bytes: the
// child-facing state plus the per-child rule scratch and the job table.
func (g *Global) MemoryFootprint() uint64 {
	total := g.stageCore.MemoryFootprint() + uint64(g.members.size())*footprintPerStage
	g.mu.Lock()
	total += uint64(len(g.jobWeights)) * footprintPerJob
	g.mu.Unlock()
	return total
}

// Close stops the state-sync loop, severs all child connections, stops the
// registration endpoint, and flushes and closes the store (if any).
func (g *Global) Close() error {
	g.mu.Lock()
	syncCancel, syncDone := g.syncCancel, g.syncDone
	g.mu.Unlock()
	if syncCancel != nil {
		syncCancel()
		<-syncDone
	}
	g.members.closeAll()
	err := g.regSrv.Close()
	if g.cfg.Store != nil {
		if serr := g.cfg.Store.Close(); err == nil {
			err = serr
		}
	}
	return err
}

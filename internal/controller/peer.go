package controller

import (
	"context"
	"fmt"
	"sync"
	"time"

	"github.com/dsrhaslab/sdscale/internal/controlalg"
	"github.com/dsrhaslab/sdscale/internal/metrics"
	"github.com/dsrhaslab/sdscale/internal/monitor"
	"github.com/dsrhaslab/sdscale/internal/rpc"
	"github.com/dsrhaslab/sdscale/internal/stage"
	"github.com/dsrhaslab/sdscale/internal/telemetry"
	"github.com/dsrhaslab/sdscale/internal/trace"
	"github.com/dsrhaslab/sdscale/internal/transport"
	"github.com/dsrhaslab/sdscale/internal/wire"
)

// PeerConfig configures one controller of the coordinated flat design.
type PeerConfig struct {
	// ID is the peer's cluster-unique identifier.
	ID uint64
	// Network is the transport used to listen and dial.
	Network transport.Network
	// ListenAddr is where other peers (and registering stages) reach this
	// controller (":0" auto-assigns).
	ListenAddr string
	// Algorithm is the control algorithm; every peer must run the same
	// one. Nil selects PSFA.
	Algorithm controlalg.Algorithm
	// Capacity is the full shared-PFS capacity; every peer must be
	// configured with the same value.
	Capacity wire.Rates
	// FanOut bounds stage-dispatch parallelism. Zero selects DefaultFanOut.
	FanOut int
	// FanOutMode selects the collect/enforce dispatch strategy; the zero
	// value pipelines requests over the stage connections. See
	// GlobalConfig.FanOutMode.
	FanOutMode FanOutMode
	// CallTimeout bounds each RPC. Zero selects 10 seconds.
	CallTimeout time.Duration
	// MaxFailures is the consecutive-failure threshold that trips a
	// stage's circuit breaker into quarantine. Zero selects
	// DefaultMaxFailures.
	MaxFailures int
	// StaleAfter discards a peer's shared aggregates when they have not
	// been refreshed for this long, so a dead peer's stale demand stops
	// influencing allocations; it also bounds the age of a quarantined
	// stage's last-known report used by degraded cycles. Zero selects 10
	// seconds.
	StaleAfter time.Duration
	// ProbeInterval / MaxProbeInterval shape the half-open probe backoff
	// for quarantined stages; EvictAfter (zero = never) permanently
	// removes a stage quarantined that long. See GlobalConfig for details.
	ProbeInterval    time.Duration
	MaxProbeInterval time.Duration
	EvictAfter       time.Duration
	// Incremental makes the peer's own-partition collect work from the
	// push-maintained report cache: stages push deltas as their rates move,
	// and the collect scatter shrinks to the edge cases (never reported,
	// forced after re-registration or readmission, cache past
	// IncrementalFloor, no connection attached). Enforce sends are diffed per
	// stage, skipping unchanged rules. The peer exchange is unaffected —
	// fellows always receive the cycle's full aggregates. Requires
	// FanOutPipelined; with FanOutBlocking the full fan-out runs unchanged.
	Incremental bool
	// IncrementalFloor bounds how old a stage's cached report may grow
	// before an incremental collect refreshes it explicitly. It must exceed
	// the stage-side push floor (stage.Config.PushFloor). Zero selects
	// StaleAfter.
	IncrementalFloor time.Duration
	// Meter, if non-nil, is charged with the peer's traffic.
	Meter *transport.Meter
	// CPU, if non-nil, is charged with the peer's busy time.
	CPU *monitor.CPUMeter
	// Tracer, if non-nil, records the peer's cycle, phase, per-RPC, and
	// server spans (stage calls tagged with the stage's ID, peer-exchange
	// calls with the fellow's ID). Must be exclusive to this peer.
	Tracer *trace.Tracer
	// Logf, if non-nil, receives operational logs.
	Logf func(format string, args ...any)
}

func (c PeerConfig) withDefaults() PeerConfig {
	if c.Algorithm == nil {
		c.Algorithm = controlalg.PSFA{}
	}
	if c.ListenAddr == "" {
		c.ListenAddr = ":0"
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
	if c.StaleAfter <= 0 {
		c.StaleAfter = 10 * time.Second
	}
	return c
}

// remoteView is the latest aggregate state received from one peer.
type remoteView struct {
	cycle uint64
	jobs  []wire.JobReport
	when  time.Time
}

// Peer is one controller of the coordinated flat design the paper's §VI
// proposes as future work: several flat controllers, each owning a disjoint
// partition of the data-plane stages, that coordinate by exchanging per-job
// demand aggregates every cycle. Each peer therefore keeps global
// visibility — its allocation input covers every job in the cluster — while
// holding only its own partition's connections, escaping the per-node
// connection limit without adding a hierarchy level to the critical path.
//
// Coordination is asynchronous: a cycle pushes this peer's fresh aggregates
// to every other peer and computes with the newest aggregates it holds from
// them (at most one cycle stale), rather than blocking on a barrier. A
// failed peer's aggregates age out after StaleAfter, and the stages it
// managed keep enforcing their last rules — availability degrades softly,
// exactly the dependability behavior §VI describes.
type Peer struct {
	// stageCore is the stage-facing half, over this peer's own partition
	// (see core.go).
	stageCore
	cfg      PeerConfig
	server   *rpc.Server
	recorder *telemetry.CycleRecorder

	mu         sync.Mutex
	peers      map[uint64]*child // fellow controllers
	remote     map[uint64]remoteView
	jobWeights map[uint64]float64
	cycle      uint64
}

// StartPeer launches a coordinated-flat peer controller.
func StartPeer(cfg PeerConfig) (*Peer, error) {
	cfg = cfg.withDefaults()
	p := &Peer{
		cfg:        cfg,
		recorder:   telemetry.NewCycleRecorder(),
		peers:      make(map[uint64]*child),
		remote:     make(map[uint64]remoteView),
		jobWeights: make(map[uint64]float64),
	}
	p.init(stageOpts{
		who: fmt.Sprintf("peer %d", cfg.ID), network: cfg.Network,
		fanMode: cfg.FanOutMode, par: cfg.FanOut, callTimeout: cfg.CallTimeout,
		breaker: breakerConfig{MaxFailures: cfg.MaxFailures, ProbeInterval: cfg.ProbeInterval,
			MaxProbeInterval: cfg.MaxProbeInterval, StaleAfter: cfg.StaleAfter, EvictAfter: cfg.EvictAfter},
		incremental: cfg.Incremental, floor: cfg.IncrementalFloor,
		meter: cfg.Meter, cpu: cfg.CPU, tracer: cfg.Tracer, logFn: cfg.Logf,
	})
	srv, err := rpc.Serve(cfg.Network, cfg.ListenAddr, rpc.HandlerFunc(p.serve), rpc.ServerOptions{
		Meter:  cfg.Meter,
		Logf:   cfg.Logf,
		Tracer: cfg.Tracer,
	})
	if err != nil {
		return nil, fmt.Errorf("peer %d: %w", cfg.ID, err)
	}
	p.server = srv
	return p, nil
}

// ID returns the peer's identifier.
func (p *Peer) ID() uint64 { return p.cfg.ID }

// Addr returns the peer's listen address.
func (p *Peer) Addr() string { return p.server.Addr().String() }

// Recorder returns the peer's cycle-latency recorder.
func (p *Peer) Recorder() *telemetry.CycleRecorder { return p.recorder }

// NumStages returns the number of stages this peer manages.
func (p *Peer) NumStages() int { return p.members.size() }

// NumPeers returns the number of fellow controllers this peer exchanges
// aggregates with.
func (p *Peer) NumPeers() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.peers)
}

// AddStage connects the peer to a stage in its partition.
func (p *Peer) AddStage(ctx context.Context, info stage.Info) error {
	if _, err := p.addChild(ctx, wire.RoleStage, info, nil); err != nil {
		return err
	}
	w := info.Weight
	if w <= 0 {
		w = 1
	}
	p.mu.Lock()
	p.jobWeights[info.JobID] = w
	p.mu.Unlock()
	return nil
}

// AddPeer connects this controller to a fellow peer for aggregate exchange.
func (p *Peer) AddPeer(ctx context.Context, id uint64, addr string) error {
	if id == p.cfg.ID {
		return fmt.Errorf("peer %d: cannot peer with itself", id)
	}
	cli, err := p.dial(ctx, addr, id)
	if err != nil {
		return fmt.Errorf("peer %d: dial peer %d at %s: %w", p.cfg.ID, id, addr, err)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, dup := p.peers[id]; dup {
		cli.Close()
		return fmt.Errorf("peer %d: duplicate peer ID %d", p.cfg.ID, id)
	}
	p.peers[id] = &child{info: stage.Info{ID: id, Addr: addr}, role: wire.RoleGlobal, cli: cli}
	return nil
}

// serve handles stage registrations and fellow peers' exchanges.
func (p *Peer) serve(peer *rpc.Peer, req wire.Message) (wire.Message, error) {
	switch m := req.(type) {
	case *wire.PeerExchange:
		p.mu.Lock()
		prev := p.remote[m.PeerID]
		if m.Cycle >= prev.cycle {
			p.remote[m.PeerID] = remoteView{cycle: m.Cycle, jobs: m.Jobs, when: time.Now()}
		}
		_, known := p.peers[m.PeerID]
		p.mu.Unlock()
		if !known && m.Addr != "" && m.PeerID != p.cfg.ID {
			// Auto-mesh: a one-sidedly configured peer announced itself;
			// dial back so our aggregates reach it too.
			ctx, cancel := context.WithTimeout(context.Background(), p.cfg.CallTimeout)
			if err := p.AddPeer(ctx, m.PeerID, m.Addr); err != nil {
				p.logf("peer %d: auto-mesh with %d at %s: %v", p.cfg.ID, m.PeerID, m.Addr, err)
			} else {
				p.logf("peer %d: auto-meshed with peer %d at %s", p.cfg.ID, m.PeerID, m.Addr)
			}
			cancel()
		}
		return &wire.PeerExchangeAck{Cycle: m.Cycle, PeerID: p.cfg.ID}, nil
	case *wire.Register:
		if m.Role != wire.RoleStage {
			return nil, &wire.ErrorReply{Code: wire.CodeBadMessage, Text: "only stages may register with a peer controller"}
		}
		ctx, cancel := context.WithTimeout(context.Background(), p.cfg.CallTimeout)
		defer cancel()
		if c := p.members.get(m.ID); c != nil {
			if err := p.reRegister(ctx, c, m.Addr); err != nil {
				return nil, err
			}
			return &wire.RegisterAck{ID: m.ID}, nil
		}
		if err := p.AddStage(ctx, stage.Info{ID: m.ID, JobID: m.JobID, Weight: m.Weight, Addr: m.Addr}); err != nil {
			return nil, err
		}
		return &wire.RegisterAck{ID: m.ID}, nil
	case *wire.StageList:
		return &wire.StageListReply{Stages: p.stageEntries()}, nil
	case *wire.Heartbeat:
		return &wire.HeartbeatAck{EchoUnixMicros: m.SentUnixMicros}, nil
	}
	return nil, fmt.Errorf("peer %d: unexpected %s", p.cfg.ID, req.Type())
}

// RunCycle executes one coordinated control cycle: collect own partition,
// exchange aggregates with peers, compute over the merged global view,
// enforce own partition. Peers have no leadership epochs; their spans and
// messages carry epoch 0.
func (p *Peer) RunCycle(ctx context.Context) (telemetry.Breakdown, error) {
	p.mu.Lock()
	probeCycle := p.cycle + 1
	p.mu.Unlock()
	b, err := p.runCycle(ctx, probeCycle, 0,
		func() (cycle, epoch uint64) {
			p.mu.Lock()
			defer p.mu.Unlock()
			p.cycle++
			return p.cycle, 0
		}, p.runPhases)
	if err == nil {
		p.recorder.Record(b)
	}
	return b, err
}

func (p *Peer) runPhases(ctx context.Context, cycle, _ uint64, children, quarantined []*child) (telemetry.Breakdown, error) {
	var b telemetry.Breakdown

	// Phase 1: gather own partition's reports, aggregate, and exchange with
	// peers.
	ph := p.beginPhase(trace.PhaseCollect, cycle, 0)
	reports, _ := p.gatherReports(ctx, wire.Collect{Cycle: cycle, WindowMicros: 1_000_000}, children, quarantined, false)
	start := time.Now()
	ownJobs := metrics.AggregateByJob(reports)
	p.busy(start)
	p.exchange(ctx, cycle, ownJobs)
	b.Collect = p.endPhase(ph)
	if ctx.Err() != nil {
		return b, ctx.Err()
	}

	// Phase 2: compute over the merged global view.
	ph = p.beginPhase(trace.PhaseCompute, cycle, 0)
	groups := [][]wire.JobReport{ownJobs}
	p.mu.Lock()
	for id, v := range p.remote {
		if ph.start.Sub(v.when) > p.cfg.StaleAfter {
			delete(p.remote, id) // dead peer: let its demand age out
			continue
		}
		groups = append(groups, v.jobs)
	}
	merged := metrics.MergeJobReports(groups...)
	inputs := p.cyc.inputs.Take(&p.arena, len(merged))
	for i, j := range merged {
		w := p.jobWeights[j.JobID]
		inputs[i] = controlalg.JobInput{JobID: j.JobID, Weight: w, Demand: j.Demand, Stages: j.Stages}
	}
	p.mu.Unlock()
	allocs := p.cfg.Algorithm.Allocate(inputs, p.cfg.Capacity)

	// Each job's global allocation is split uniformly across its global
	// stage population; this peer enforces the slice covering its own
	// stages, weighted by their observed demand (see computePeerRules).
	rules := p.computePeerRules(reports, ownJobs, merged, allocs, p.cfg.FanOutMode == FanOutPipelined)
	p.busy(ph.start)
	b.Compute = p.endPhase(ph)

	// Phase 3: enforce own partition.
	ph = p.beginPhase(trace.PhaseEnforce, cycle, 0)
	p.enforceStageRules(ctx, cycle, 0, children, rules.Rules(), nil)
	b.Enforce = p.endPhase(ph)
	return b, ctx.Err()
}

// exchange pushes this cycle's aggregates to every fellow; their cycles pick
// them up. Every fellow receives the same aggregates, so the exchange is
// marshaled once into a shared frame. It stays fire-and-forget: a failed
// push just leaves the fellow computing on aggregates one cycle staler
// (NoteError still kicks the reconnect loop for the dead fellow).
func (p *Peer) exchange(ctx context.Context, cycle uint64, ownJobs []wire.JobReport) {
	p.mu.Lock()
	fellows := make([]*child, 0, len(p.peers))
	for _, c := range p.peers {
		fellows = append(fellows, c)
	}
	p.mu.Unlock()
	f := rpc.NewSharedFrame(&wire.PeerExchange{Cycle: cycle, PeerID: p.cfg.ID, Addr: p.Addr(), Jobs: ownJobs})
	rpc.Scatter(ctx, len(fellows), p.cfg.FanOut, func(i int) {
		cctx, cancel := context.WithTimeout(ctx, p.cfg.CallTimeout)
		if _, err := fellows[i].client().GoShared(cctx, f).Wait(cctx); err != nil {
			fellows[i].client().NoteError(ctx, err)
		}
		cancel()
	})
	f.Release()
	p.pipe.AddSharedSends(uint64(len(fellows)))
	p.pipe.AddSharedEncodes(f.Encodes())
}

// Run executes control cycles until ctx ends (see runLoop for the interval
// semantics).
func (p *Peer) Run(ctx context.Context, interval time.Duration) error {
	return runLoop(ctx, interval, p.RunCycle)
}

// MemoryFootprint implements monitor.MemoryReporter.
func (p *Peer) MemoryFootprint() uint64 {
	total := p.stageCore.MemoryFootprint()
	p.mu.Lock()
	total += uint64(len(p.peers)) * footprintPerChild
	for _, v := range p.remote {
		total += uint64(len(v.jobs)) * footprintPerJob
	}
	p.mu.Unlock()
	return total
}

// Close severs all connections and stops the server.
func (p *Peer) Close() error {
	p.members.closeAll()
	p.mu.Lock()
	for _, c := range p.peers {
		c.client().Close()
	}
	p.peers = make(map[uint64]*child)
	p.mu.Unlock()
	return p.server.Close()
}

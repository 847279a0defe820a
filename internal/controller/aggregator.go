package controller

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/dsrhaslab/sdscale/internal/metrics"
	"github.com/dsrhaslab/sdscale/internal/monitor"
	"github.com/dsrhaslab/sdscale/internal/rpc"
	"github.com/dsrhaslab/sdscale/internal/stage"
	"github.com/dsrhaslab/sdscale/internal/trace"
	"github.com/dsrhaslab/sdscale/internal/transport"
	"github.com/dsrhaslab/sdscale/internal/wire"
)

// AggregatorConfig configures an aggregator controller.
type AggregatorConfig struct {
	// ID is the aggregator's cluster-unique identifier.
	ID uint64
	// Network is the transport used to listen (for the global controller)
	// and to dial stages.
	Network transport.Network
	// ListenAddr is the address the global controller reaches the
	// aggregator at (":0" auto-assigns).
	ListenAddr string
	// FanOut bounds the aggregator's dispatch parallelism toward its
	// stages. Zero selects DefaultFanOut.
	FanOut int
	// FanOutMode selects the collect/enforce dispatch strategy; the zero
	// value pipelines requests over the stage connections, FanOutBlocking
	// keeps at most FanOut in flight. See GlobalConfig.FanOutMode.
	FanOutMode FanOutMode
	// CallTimeout bounds each stage RPC. Zero selects 10 seconds.
	CallTimeout time.Duration
	// MaxFailures is the consecutive-failure threshold that trips a
	// stage's circuit breaker into quarantine. Zero selects
	// DefaultMaxFailures.
	MaxFailures int
	// ProbeInterval / MaxProbeInterval shape the half-open probe backoff
	// for quarantined stages; StaleAfter bounds last-known-report age in
	// degraded collects; EvictAfter (zero = never) permanently removes a
	// stage quarantined that long. See GlobalConfig for details.
	ProbeInterval    time.Duration
	MaxProbeInterval time.Duration
	StaleAfter       time.Duration
	EvictAfter       time.Duration
	// ForwardRaw disables metric pre-aggregation: the aggregator relays
	// every stage's raw report to the global controller instead of per-job
	// sums. This exists for the ablation benchmarks that quantify what
	// pre-aggregation buys (the paper's Table III network asymmetry and
	// Table IV CPU migration); production deployments leave it false.
	ForwardRaw bool
	// Incremental makes the aggregator answer upstream Collects from its
	// push-maintained report cache: stages push deltas as their rates move,
	// and the stage-facing collect scatter shrinks to the edge cases
	// (never reported, forced after re-registration or readmission, cache
	// past IncrementalFloor, a dead connection). Enforce sends are also
	// diffed per stage, skipping unchanged rules. Requires FanOutPipelined;
	// with FanOutBlocking the full fan-out runs unchanged. The upstream reply
	// is built the same way either way, so the global controller needs no
	// matching configuration.
	Incremental bool
	// IncrementalFloor bounds how old a stage's cached report may grow
	// before an incremental collect refreshes it explicitly. It must exceed
	// the stage-side push floor (stage.Config.PushFloor). Zero selects
	// StaleAfter.
	IncrementalFloor time.Duration
	// Meter, if non-nil, is charged with all the aggregator's traffic.
	Meter *transport.Meter
	// CPU, if non-nil, is charged with the aggregator's busy time
	// (aggregation compute and its fan-outs' issue loops).
	CPU *monitor.CPUMeter
	// Tracer, if non-nil, records this aggregator's spans: one per stage
	// RPC (tagged with the stage's ID) plus server spans for upstream
	// requests. The tracer carries per-phase cycle context, so it must be
	// exclusive to this aggregator.
	Tracer *trace.Tracer
	// Logf, if non-nil, receives operational logs.
	Logf func(format string, args ...any)
}

func (c AggregatorConfig) withDefaults() AggregatorConfig {
	if c.ListenAddr == "" {
		c.ListenAddr = ":0"
	}
	if c.FanOut <= 0 {
		c.FanOut = DefaultFanOut
	}
	if c.CallTimeout <= 0 {
		c.CallTimeout = 10 * time.Second
	}
	return c
}

// Aggregator is the mid-tier controller of the hierarchical design (paper
// Fig. 3): it disseminates the global controller's requests to its disjoint
// set of stages, pre-aggregates their metrics per job, and fans enforcement
// rules back out.
type Aggregator struct {
	// stageCore is the stage-facing half (see core.go). Its cycle-serial
	// state is driven by the upstream handlers, which are serialized in
	// practice — one parent drives the cycle, and a deposed parent's calls
	// are fenced by checkEpoch before they reach the scatter. collect begins
	// an arena generation; the enforce (or delegate) that follows it in the
	// parent's cycle draws disjoint regions from the same generation.
	stageCore
	cfg    AggregatorConfig
	server *rpc.Server

	// mu guards the last collect's report set and the fencing bookkeeping.
	// reports is the set the last collect assembled, arena memory valid
	// until the next collect begins a generation, and jobs its per-job sums
	// (nil after a ForwardRaw collect); a Delegate splits its budgets over
	// them.
	mu          sync.Mutex
	reports     []wire.StageReport
	jobs        []wire.JobReport
	epoch       uint64 // highest leadership epoch seen
	fencedCalls uint64 // stale-epoch rejections issued
}

// StartAggregator launches an aggregator's RPC server. Stages are attached
// afterwards with AddStage.
func StartAggregator(cfg AggregatorConfig) (*Aggregator, error) {
	cfg = cfg.withDefaults()
	a := &Aggregator{cfg: cfg}
	a.init(stageOpts{
		who: fmt.Sprintf("aggregator %d", cfg.ID), network: cfg.Network,
		fanMode: cfg.FanOutMode, par: cfg.FanOut, callTimeout: cfg.CallTimeout,
		breaker: breakerConfig{MaxFailures: cfg.MaxFailures, ProbeInterval: cfg.ProbeInterval,
			MaxProbeInterval: cfg.MaxProbeInterval, StaleAfter: cfg.StaleAfter, EvictAfter: cfg.EvictAfter},
		incremental: cfg.Incremental, floor: cfg.IncrementalFloor,
		meter: cfg.Meter, cpu: cfg.CPU, tracer: cfg.Tracer, logFn: cfg.Logf,
	})
	// The server deliberately gets no CPU meter: its handler blocks on the
	// stage fan-out, so handler wall time is not aggregator CPU. Busy time
	// is charged explicitly around aggregation and around each stage
	// fan-out's issue loop.
	// Inbound requests are recycled: every handler completes its stage
	// fan-out (including shared-frame encodes) before returning, so no
	// reference to the request survives the response write.
	srv, err := rpc.Serve(cfg.Network, cfg.ListenAddr, rpc.HandlerFunc(a.serve), rpc.ServerOptions{
		Meter:         cfg.Meter,
		Logf:          cfg.Logf,
		Tracer:        cfg.Tracer,
		ReuseRequests: true,
		ReuseHits:     a.pipe.ReuseCounter(),
	})
	if err != nil {
		return nil, fmt.Errorf("aggregator %d: %w", cfg.ID, err)
	}
	a.server = srv
	return a, nil
}

// ID returns the aggregator's identifier.
func (a *Aggregator) ID() uint64 { return a.cfg.ID }

// Addr returns the aggregator's listen address.
func (a *Aggregator) Addr() string { return a.server.Addr().String() }

// NumStages returns the number of stages the aggregator manages.
func (a *Aggregator) NumStages() int { return a.members.size() }

// Stages returns the managed stages' identities.
func (a *Aggregator) Stages() []stage.Info {
	children := a.members.snapshot()
	out := make([]stage.Info, len(children))
	for i, c := range children {
		out[i] = c.info
	}
	return out
}

// AddStage connects the aggregator to a stage it will manage.
func (a *Aggregator) AddStage(ctx context.Context, info stage.Info) error {
	_, err := a.addChild(ctx, wire.RoleStage, info, nil)
	return err
}

// serve handles requests from the global controller (and dynamic stage
// registrations).
func (a *Aggregator) serve(peer *rpc.Peer, req wire.Message) (wire.Message, error) {
	switch m := req.(type) {
	case *wire.Collect:
		if er := a.checkEpoch(m.Epoch); er != nil {
			return nil, er
		}
		return a.collect(m)
	case *wire.Enforce:
		if er := a.checkEpoch(m.Epoch); er != nil {
			return nil, er
		}
		return a.enforce(m), nil
	case *wire.Delegate:
		if er := a.checkEpoch(m.Epoch); er != nil {
			return nil, er
		}
		return a.delegate(m), nil
	case *wire.Heartbeat:
		return &wire.HeartbeatAck{EchoUnixMicros: m.SentUnixMicros}, nil
	case *wire.StageList:
		return &wire.StageListReply{Stages: a.stageEntries()}, nil
	case *wire.Register:
		return a.handleRegister(m)
	}
	return nil, fmt.Errorf("aggregator %d: unexpected %s", a.cfg.ID, req.Type())
}

// handleRegister admits new stages and treats a duplicate registration from
// a known stage ID as a reconnect: the stale connection is replaced and the
// breaker state kept.
func (a *Aggregator) handleRegister(m *wire.Register) (wire.Message, error) {
	if m.Role != wire.RoleStage {
		return nil, &wire.ErrorReply{Code: wire.CodeBadMessage, Text: "only stages may register with an aggregator"}
	}
	ctx, cancel := context.WithTimeout(context.Background(), a.cfg.CallTimeout)
	defer cancel()
	if c := a.members.get(m.ID); c != nil {
		if err := a.reRegister(ctx, c, m.Addr); err != nil {
			return nil, err
		}
		return &wire.RegisterAck{ID: m.ID, Epoch: a.Epoch()}, nil
	}
	if err := a.AddStage(ctx, stage.Info{ID: m.ID, JobID: m.JobID, Weight: m.Weight, Addr: m.Addr}); err != nil {
		return nil, err
	}
	return &wire.RegisterAck{ID: m.ID, Epoch: a.Epoch()}, nil
}

// checkEpoch is the aggregator's side of epoch fencing: calls from a lower
// leadership epoch than the highest seen are rejected (the sender was
// deposed), and higher epochs are adopted.
func (a *Aggregator) checkEpoch(senderEpoch uint64) *wire.ErrorReply {
	a.mu.Lock()
	defer a.mu.Unlock()
	if senderEpoch < a.epoch {
		a.fencedCalls++
		return &wire.ErrorReply{
			Code:  wire.CodeStaleEpoch,
			Text:  fmt.Sprintf("aggregator %d: sender epoch %d deposed, current epoch is %d", a.cfg.ID, senderEpoch, a.epoch),
			Epoch: a.epoch,
		}
	}
	if senderEpoch > a.epoch {
		a.epoch = senderEpoch
	}
	return nil
}

// Epoch returns the highest leadership epoch the aggregator has seen.
func (a *Aggregator) Epoch() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.epoch
}

// collect fans the request out to all stages and returns per-job
// aggregates (or, with ForwardRaw, the concatenated raw reports).
// Aggregation is the CPU-heavy step the paper observes moving from the
// global controller to the aggregators (Table IV).
func (a *Aggregator) collect(m *wire.Collect) (wire.Message, error) {
	ctx := context.Background()
	epoch := a.Epoch()
	a.setPhase(trace.PhaseProbe, m.Cycle, epoch)
	// One arena generation per parent-driven cycle: the enforce/delegate that
	// follows this collect appends to the same generation. The previous
	// cycle's reply was fully encoded before this handler ran, so its
	// slab-backed reports are dead here.
	a.arena.Begin()
	children, quarantined := a.prepareCycle(ctx)
	// The inbound request is re-broadcast verbatim. All fan-out completes
	// before this handler returns, which keeps the server's request
	// recycling sound.
	a.setPhase(trace.PhaseCollect, m.Cycle, epoch)
	reports, _ := a.gatherReports(ctx, *m, children, quarantined, false)

	start := time.Now()
	defer a.busy(start)
	a.mu.Lock()
	defer a.mu.Unlock()
	a.reports, a.jobs = reports, nil
	if a.cfg.ForwardRaw {
		return &wire.CollectReply{Cycle: m.Cycle, Reports: reports}, nil
	}
	a.jobs = a.cyc.jobs.ByJob(reports)
	return &wire.CollectAggReply{Cycle: m.Cycle, AggregatorID: a.cfg.ID, Jobs: a.jobs}, nil
}

// enforce routes each rule in the batch to its stage. Quarantined stages
// are skipped; they keep enforcing their last rules until readmitted.
func (a *Aggregator) enforce(m *wire.Enforce) *wire.EnforceAck {
	children, _ := a.scratch.split(a.members)

	// Group rules by stage without a per-call map: copy the batch into an
	// arena slab (the inbound request is recycled after the reply, so the
	// rules must not alias it anyway) and stable-sort by stage, leaving each
	// stage's rules a contiguous run in arrival order.
	start := time.Now()
	rules := a.cyc.ruleBuf.Take(&a.arena, len(m.Rules))
	copy(rules, m.Rules)
	slices.SortStableFunc(rules, func(x, y wire.Rule) int { return stageOrder(x, y.StageID) })
	a.busy(start)
	return a.enforceRules(m.Cycle, children, nil, rules)
}

// delegate is the offloaded enforcement of the delegated hierarchy (paper
// §VI): it splits per-job budgets over the stages of the last collect and
// fans the rules out like an enforce.
func (a *Aggregator) delegate(m *wire.Delegate) *wire.EnforceAck {
	children, _ := a.scratch.split(a.members)
	casts, rules := a.delegateRules(m, children)
	return a.enforceRules(m.Cycle, children, casts, rules)
}

// wildcast is one job's state in delegateRules: whether it has a budget,
// whether its rules must go out per stage (it has one stage, or its stages'
// limits differ), and otherwise the wildcard rule and the active stages it is
// sent to.
type wildcast struct {
	rule                    wire.Rule
	targets                 []*child
	budgeted, seen, unicast bool
}

// delegateRules splits each budget over its job's stages in the last
// collect's report set with the flat kernel, emitRules: proportionally to
// their demand. A job whose split is identical on all of its more than one
// stages — the steady state of a converged workload — becomes one wildcard
// rule (StageID 0), marshaled once and sent to the job's active stages; casts
// holds one entry per job, and those with targets are sent. The other jobs'
// rules come back StageID-sorted. A job without a budget gets no rule.
func (a *Aggregator) delegateRules(m *wire.Delegate, active []*child) (casts []wildcast, rules []wire.Rule) {
	defer a.busy(time.Now())
	a.mu.Lock()
	reports, jobs := a.reports, a.jobs
	a.mu.Unlock()
	if jobs == nil {
		jobs = metrics.AggregateByJob(reports)
	}
	budget := a.cyc.allocOf.Take(&a.arena, len(jobs))
	casts = a.cyc.casts.Take(&a.arena, len(jobs))
	for _, b := range m.Budgets {
		if k := jobSlot(jobs, b.JobID); k >= 0 {
			budget[k] = b.Limit
			casts[k] = wildcast{rule: wire.Rule{StageID: wire.WildcardStage, JobID: b.JobID, Action: wire.ActionSetLimit},
				budgeted: true, unicast: jobs[k].Stages < 2}
		}
	}
	table := emitRules(&a.cyc, &a.arena, a.pipe, reports, jobs, budget, a.fanMode == FanOutPipelined)
	all := table.Rules()
	for _, r := range all {
		w := &casts[jobSlot(jobs, r.JobID)]
		if !w.seen {
			w.seen, w.rule.Limit = true, r.Limit
		} else if r.Limit != w.rule.Limit {
			w.unicast = true
		}
	}
	for _, c := range active {
		if r, ok := table.Lookup(c.info.ID); ok {
			k := jobSlot(jobs, r.JobID)
			if w := &casts[k]; w.budgeted && !w.unicast {
				if w.targets == nil { // at most the job's reporting stages
					w.targets = a.cyc.targets.Take(&a.arena, int(jobs[k].Stages))[:0]
				}
				w.targets = append(w.targets, c)
			}
		}
	}
	// The table is dead from here: compact the unicast rules in place.
	rules = all[:0]
	for _, r := range all {
		if w := &casts[jobSlot(jobs, r.JobID)]; w.budgeted && w.unicast {
			rules = append(rules, r)
		}
	}
	return casts, rules
}

// enforceRules sends each wildcard cast to its targets as one shared frame,
// then each active stage its run of the StageID-sorted rules, and acks the
// rules applied.
func (a *Aggregator) enforceRules(cycle uint64, active []*child, casts []wildcast, rules []wire.Rule) *wire.EnforceAck {
	var applied atomic.Uint32
	ctx := context.Background()
	epoch := a.Epoch()
	a.setPhase(trace.PhaseEnforce, cycle, epoch)
	for _, w := range casts {
		if len(w.targets) == 0 {
			continue
		}
		f := rpc.NewSharedFrame(&wire.Enforce{Cycle: cycle, Rules: []wire.Rule{w.rule}, Epoch: epoch})
		a.fanOutBroadcast(ctx, a.cycleFan(&a.pipe.EnforceInFlight), w.targets, f, sumApplied(&applied))
	}
	a.enforceStageRules(ctx, cycle, epoch, active, rules, sumApplied(&applied))
	return &wire.EnforceAck{Cycle: cycle, Applied: applied.Load()}
}

// Close severs stage connections and stops the server.
func (a *Aggregator) Close() error {
	a.members.closeAll()
	return a.server.Close()
}

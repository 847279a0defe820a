// Package stage implements the data-plane side of the SDS architecture:
// the per-node components that sit between applications and the PFS client
// (paper Fig. 1), answer the control plane's metric collections, and apply
// its enforcement rules.
//
// Two stage kinds are provided:
//
//   - Virtual stages reproduce the paper's methodology (§III-C): they hold
//     no application I/O, synthesize their metrics from a workload
//     generator, and acknowledge enforcement rules. Thousands of them run
//     in one process to simulate large infrastructures.
//   - Enforcing stages are functional: applications push operations
//     through Submit, a multi-class token bucket admits them at the
//     control plane's current limits, and admitted operations proceed to
//     the (simulated) PFS. They power the end-to-end QoS examples.
//
// Stages are RPC servers; controllers dial them. This mirrors the paper's
// deployment, where the controller maintains the connection pool to all
// stages — and is therefore the endpoint that hits the per-node connection
// limit (§IV-A).
package stage

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/dsrhaslab/sdscale/internal/metrics"
	"github.com/dsrhaslab/sdscale/internal/pfs"
	"github.com/dsrhaslab/sdscale/internal/ratelimit"
	"github.com/dsrhaslab/sdscale/internal/rpc"
	"github.com/dsrhaslab/sdscale/internal/trace"
	"github.com/dsrhaslab/sdscale/internal/transport"
	"github.com/dsrhaslab/sdscale/internal/wire"
	"github.com/dsrhaslab/sdscale/internal/workload"
)

// Info identifies a stage to the control plane.
type Info struct {
	// ID is the cluster-unique stage identifier.
	ID uint64
	// JobID is the job this stage serves.
	JobID uint64
	// Weight is the job's QoS weight.
	Weight float64
	// Addr is the stage's RPC listen address.
	Addr string
}

// Config configures a virtual stage.
type Config struct {
	// ID is the cluster-unique stage identifier.
	ID uint64
	// JobID is the job this stage serves.
	JobID uint64
	// Weight is the job's QoS weight.
	Weight float64
	// Generator drives the stage's synthetic demand. Nil selects the
	// paper's stress workload.
	Generator workload.Generator
	// Network is the transport to listen on.
	Network transport.Network
	// ListenAddr is the address to listen on (":0" auto-assigns).
	ListenAddr string
	// Parents is an ordered list of parent controller addresses. When set,
	// the stage registers itself (retrying until a parent is reachable)
	// and re-homes to the first answering address whenever no parent has
	// contacted it for ParentTimeout — the child side of controller
	// failover. When empty, the control plane must adopt the stage
	// explicitly (AddStage or Register).
	Parents []string
	// ParentTimeout is how long the stage waits without control-plane
	// contact before re-registering. Zero selects DefaultParentTimeout.
	// Only meaningful with Parents set.
	ParentTimeout time.Duration
	// Tracer, when set, records a server span per control-plane request
	// (queue vs. handler vs. write time). Stage servers never write cycle
	// context, so one tracer may be shared by many stages.
	Tracer *trace.Tracer
	// PushThreshold enables event-driven report pushes: the stage samples
	// its demand/usage every PushInterval and, when any class moved by more
	// than this fraction relative to the last pushed value (or appeared from
	// zero), pushes a wire.ReportDelta to every connected parent. Zero
	// disables pushing (the paper-faithful poll-only stage). A pushed report
	// also refreshes on a heartbeat floor (PushFloor) so parents can tell a
	// silent stage from an unchanged one, and an epoch change forces a Full
	// baseline resend.
	PushThreshold float64
	// PushInterval is the local sampling period for push decisions. Zero
	// selects DefaultPushInterval. Only meaningful with PushThreshold set.
	PushInterval time.Duration
	// PushFloor is the maximum quiet time between pushes: even an unchanged
	// stage re-pushes (Full=true) this long after its previous push. Zero
	// selects DefaultPushFloor. Only meaningful with PushThreshold set.
	PushFloor time.Duration
}

// DefaultParentTimeout is how long a stage with a parent list waits without
// control-plane contact before it assumes its parent died and re-homes.
const DefaultParentTimeout = time.Second

// DefaultPushInterval is the default local sampling period for event-driven
// report pushes (Config.PushInterval).
const DefaultPushInterval = 100 * time.Millisecond

// DefaultPushFloor is the default heartbeat floor between pushes
// (Config.PushFloor): an unchanged stage still re-pushes this often.
const DefaultPushFloor = time.Second

// Virtual is the paper's lightweight stage: it answers collections with
// generator-driven metrics and records enforcement rules.
type Virtual struct {
	cfg    Config
	server *rpc.Server
	start  time.Time
	fence  fence
	who    string // "stage N", precomputed: fence checks run on every request

	// pusher and watchdog are the stage's tasks on the process-wide wheel:
	// its push decision (PushThreshold set) and its parent watchdog
	// (Parents set); nil when not configured. Their writes and
	// registrations run on short-lived goroutines that bg counts.
	pusher   *pusher
	watchdog *watchdog
	bg       sync.WaitGroup
	pushes   atomic.Uint64

	// replies recycles this stage's response messages: the RPC server hands
	// each response back once its bytes are on the wire
	// (rpc.ServerOptions.RecycleReply), and the next request of that type
	// reuses the instance instead of allocating. One slot per type matches
	// the single-parent steady state; overlapping parents (failover) fall
	// back to allocating.
	replies replyCache

	mu              sync.Mutex
	rule            wire.Rule
	haveRule        bool
	collects        uint64
	enforces        uint64
	lastCycle       uint64
	reRegistrations uint64
	closed          bool
}

// StartVirtual launches a virtual stage's RPC server.
func StartVirtual(cfg Config) (*Virtual, error) {
	if cfg.Generator == nil {
		cfg.Generator = workload.Stress()
	}
	if cfg.ListenAddr == "" {
		cfg.ListenAddr = ":0"
	}
	if cfg.ParentTimeout <= 0 {
		cfg.ParentTimeout = DefaultParentTimeout
	}
	v := &Virtual{cfg: cfg, start: time.Now(), who: fmt.Sprintf("stage %d", cfg.ID)}
	v.fence.watched = len(cfg.Parents) > 0 // only rehome reads the contact time
	// Stage handlers copy what they keep out of each request, so inbound
	// collects/enforces/heartbeats are safely recycled per connection. They
	// take only the stage's own short locks, so they never block: on an
	// untimed simnet a request is answered inside the controller's write.
	srv, err := rpc.Serve(cfg.Network, cfg.ListenAddr, rpc.HandlerFunc(v.serve), rpc.ServerOptions{
		Tracer:        cfg.Tracer,
		ReuseRequests: true,
		RecycleReply:  v.replies.recycle,
		NonBlocking:   true,
	})
	if err != nil {
		return nil, fmt.Errorf("stage %d: %w", cfg.ID, err)
	}
	v.server = srv
	if len(cfg.Parents) > 0 {
		v.fence.touch() // grace period: don't re-home before first contact
		v.watchdog = newWatchdog(v)
	}
	if cfg.PushThreshold > 0 {
		if v.cfg.PushInterval <= 0 {
			v.cfg.PushInterval = DefaultPushInterval
		}
		if v.cfg.PushFloor <= 0 {
			v.cfg.PushFloor = DefaultPushFloor
		}
		v.pusher = &pusher{v: v}
		v.pusher.task = task{every: v.cfg.PushInterval, fire: v.pusher.tick}
		stageWheel.join(&v.pusher.task, cfg.ID)
	}
	return v, nil
}

// Info returns the stage's identity, including its bound address.
func (v *Virtual) Info() Info {
	return Info{ID: v.cfg.ID, JobID: v.cfg.JobID, Weight: v.cfg.Weight, Addr: v.server.Addr().String()}
}

// Close stops the stage. It returns once the stage's tick, push and
// registration in progress, if any, have finished, and its server has
// finished the request it was answering (its span included); none starts
// afterwards.
func (v *Virtual) Close() error {
	v.mu.Lock()
	wasClosed := v.closed
	v.closed = true
	v.mu.Unlock()
	if wasClosed {
		return v.server.Close()
	}
	if v.pusher != nil {
		stageWheel.leave(&v.pusher.task)
	}
	if v.watchdog != nil {
		stageWheel.leave(&v.watchdog.task)
		v.watchdog.cancel()
	}
	// Closing the server severs the parents' connections, so a push
	// blocked on a write fails instead of holding up the wait.
	err := v.server.Close()
	v.bg.Wait()
	v.server.Wait()
	return err
}

// serve handles control-plane requests.
func (v *Virtual) serve(peer *rpc.Peer, req wire.Message) (wire.Message, error) {
	switch m := req.(type) {
	case *wire.Collect:
		if er := v.fence.check(v.who, m.Epoch); er != nil {
			return nil, er
		}
		return v.collect(m), nil
	case *wire.Enforce:
		if er := v.fence.check(v.who, m.Epoch); er != nil {
			return nil, er
		}
		return v.enforce(m), nil
	case *wire.Heartbeat:
		v.fence.touch()
		ack := v.replies.takeHeartbeat()
		ack.EchoUnixMicros = m.SentUnixMicros
		return ack, nil
	}
	return nil, fmt.Errorf("stage %d: unexpected %s", v.cfg.ID, req.Type())
}

// clampLocked derives admitted usage from demand under the currently
// enforced rule. Callers hold v.mu.
func (v *Virtual) clampLocked(demand wire.Rates) wire.Rates {
	usage := demand
	if v.haveRule {
		switch v.rule.Action {
		case wire.ActionSetLimit:
			for c := range usage {
				if usage[c] > v.rule.Limit[c] {
					usage[c] = v.rule.Limit[c]
				}
			}
		case wire.ActionPause:
			usage = wire.Rates{}
		}
	}
	return usage
}

// collect synthesizes the stage's report. Usage reflects the currently
// enforced limit, so the control loop observes the effect of its own rules
// — the feedback the PSFA algorithm relies on.
func (v *Virtual) collect(m *wire.Collect) *wire.CollectReply {
	demand := v.cfg.Generator.Demand(time.Since(v.start))

	v.mu.Lock()
	v.collects++
	v.lastCycle = m.Cycle
	usage := v.clampLocked(demand)
	v.mu.Unlock()

	rep := v.replies.takeCollect()
	rep.Cycle = m.Cycle
	rep.Reports = append(rep.Reports[:0], wire.StageReport{
		StageID: v.cfg.ID,
		JobID:   v.cfg.JobID,
		Demand:  demand,
		Usage:   usage,
	})
	return rep
}

// enforce applies the rules addressed to this stage, directly or through a
// per-job wildcard (see wire.WildcardStage). The rule is copied out of the
// request, which the server recycles after the response is written.
func (v *Virtual) enforce(m *wire.Enforce) *wire.EnforceAck {
	var applied uint32
	v.mu.Lock()
	for i := range m.Rules {
		if ruleTargets(&m.Rules[i], v.cfg.ID, v.cfg.JobID) {
			v.rule = m.Rules[i]
			v.haveRule = true
			v.enforces++
			applied++
		}
	}
	v.mu.Unlock()
	ack := v.replies.takeEnforce()
	ack.Cycle, ack.Applied = m.Cycle, applied
	return ack
}

// ruleTargets reports whether a rule addresses the given stage: either
// directly by stage ID or as a job-wide wildcard.
func ruleTargets(r *wire.Rule, stageID, jobID uint64) bool {
	return r.StageID == stageID || (r.StageID == wire.WildcardStage && r.JobID == jobID)
}

// replyCache holds one recycled response instance per message type. take*
// swaps the cached instance out (or builds a fresh one when the slot is
// empty — e.g. two parents collecting concurrently during a failover
// overlap); recycle refills the slot once the server has written the
// response bytes, so an instance is never cached while still referenced.
// Each slot is one atomic word: a swap, not a lock pair, per answered call.
type replyCache struct {
	collect   atomic.Pointer[wire.CollectReply]
	enforce   atomic.Pointer[wire.EnforceAck]
	heartbeat atomic.Pointer[wire.HeartbeatAck]
}

func (c *replyCache) takeCollect() *wire.CollectReply {
	if rep := c.collect.Swap(nil); rep != nil {
		return rep
	}
	return &wire.CollectReply{Reports: make([]wire.StageReport, 0, 1)}
}

func (c *replyCache) takeEnforce() *wire.EnforceAck {
	if ack := c.enforce.Swap(nil); ack != nil {
		return ack
	}
	return &wire.EnforceAck{}
}

func (c *replyCache) takeHeartbeat() *wire.HeartbeatAck {
	if ack := c.heartbeat.Swap(nil); ack != nil {
		return ack
	}
	return &wire.HeartbeatAck{}
}

// recycle accepts a response the server has finished writing. Unrecognized
// types (fence errors, push acks) are simply dropped.
func (c *replyCache) recycle(m wire.Message) {
	switch m := m.(type) {
	case *wire.CollectReply:
		c.collect.Store(m)
	case *wire.EnforceAck:
		c.enforce.Store(m)
	case *wire.HeartbeatAck:
		c.heartbeat.Store(m)
	}
}

// sample synthesizes the stage's current report without counting a collect —
// the same demand/usage math collect runs, taken on the stage's own clock
// for push decisions.
func (v *Virtual) sample() wire.StageReport {
	demand := v.cfg.Generator.Demand(time.Since(v.start))
	v.mu.Lock()
	usage := v.clampLocked(demand)
	v.mu.Unlock()
	return wire.StageReport{StageID: v.cfg.ID, JobID: v.cfg.JobID, Demand: demand, Usage: usage}
}

// ratesMoved reports whether any class of n moved past the relative
// threshold thr from o. A class appearing from (or collapsing to) zero
// always counts as moved.
func ratesMoved(o, n wire.Rates, thr float64) bool {
	for c := range n {
		d := n[c] - o[c]
		if d < 0 {
			d = -d
		}
		if d == 0 {
			continue
		}
		base := o[c]
		if base < 0 {
			base = -base
		}
		if base == 0 || d/base > thr {
			return true
		}
	}
	return false
}

// pusher is the event-driven reporting side of the incremental control
// mode. The wheel ticks it every PushInterval: it samples the stage's
// metrics and pushes a ReportDelta to all connected parents when they moved
// past PushThreshold, when the leadership epoch changed (Full baseline, so
// a re-homed parent never computes from a pre-fencing report), or when
// PushFloor elapsed since the last push (Full refresh — the liveness signal
// that distinguishes a quiet stage from a dead one). Quiesced ticks take no
// allocations and write nothing.
//
// The writes run on a goroutine of their own, so a parent that stops
// reading stalls only this stage. A stage has at most one push in flight
// and skips its ticks until it lands, so parents see seq in order.
type pusher struct {
	task
	v *Virtual

	// The decision state, touched only by tick.
	last      wire.StageReport
	lastAt    time.Time
	lastEpoch uint64
	seq       uint64
	haveBase  bool

	// msg is the push in flight while sending is set; tick rewrites it
	// only once send has cleared the flag.
	msg     wire.ReportDelta
	sending atomic.Bool
}

// tick runs one push decision on the wheel's goroutine.
func (p *pusher) tick() {
	if p.sending.Load() {
		return
	}
	v := p.v
	r := v.sample()
	epoch := v.fence.current()
	now := time.Now()
	full := !p.haveBase || epoch != p.lastEpoch || now.Sub(p.lastAt) >= v.cfg.PushFloor
	if !full && !ratesMoved(p.last.Demand, r.Demand, v.cfg.PushThreshold) &&
		!ratesMoved(p.last.Usage, r.Usage, v.cfg.PushThreshold) {
		return
	}
	p.seq++
	p.msg = wire.ReportDelta{Seq: p.seq, Full: full, Epoch: epoch, Report: r}
	// The baseline advances even with no parent connected, so a
	// late-attaching parent starts from the next floor refresh rather than
	// a burst of stale deltas.
	p.last, p.lastAt, p.lastEpoch, p.haveBase = r, now, epoch, true
	p.sending.Store(true)
	v.bg.Add(1)
	go p.send()
}

// send writes the decided push to every connected parent.
func (p *pusher) send() {
	defer p.v.bg.Done()
	p.v.pushAll(&p.msg)
	p.sending.Store(false)
}

// pushAll writes m to every connected parent and counts the push if at
// least one write succeeded, which it reports.
func (v *Virtual) pushAll(m *wire.ReportDelta) bool {
	sent := false
	v.server.ForEachPeer(func(p *rpc.Peer) {
		if p.Push(m) == nil {
			sent = true
		}
	})
	if sent {
		v.pushes.Add(1)
	}
	return sent
}

// PushDelta samples the stage, scales demand and usage by f, and pushes the
// result as a Full ReportDelta to every connected parent immediately,
// outside the wheel's schedule. Full deltas are accepted regardless of the
// push decision's sequence counter (the same rule that covers stage
// restarts), so this composes with a pushing stage. Benchmarks use it to
// dirty a chosen fraction of the fleet deterministically per cycle. It
// reports false when no parent could be pushed to: none connected, or
// every write failed.
func (v *Virtual) PushDelta(f float64) bool {
	r := v.sample()
	r.Demand = r.Demand.Scale(f)
	r.Usage = r.Usage.Scale(f)
	m := deltaPool.Get().(*wire.ReportDelta)
	*m = wire.ReportDelta{Full: true, Epoch: v.fence.current(), Report: r}
	sent := v.pushAll(m)
	deltaPool.Put(m)
	return sent
}

// deltaPool recycles PushDelta's messages: a push encodes its message before
// returning, so a fleet pushing every cycle allocates none.
var deltaPool = sync.Pool{New: func() any { return new(wire.ReportDelta) }}

// Pushes returns how many ReportDelta pushes reached at least one parent.
func (v *Virtual) Pushes() uint64 { return v.pushes.Load() }

// LastRule returns the most recently applied rule, if any.
func (v *Virtual) LastRule() (wire.Rule, bool) {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.rule, v.haveRule
}

// Counters returns how many collect and enforce requests the stage served.
func (v *Virtual) Counters() (collects, enforces uint64) {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.collects, v.enforces
}

// Epoch returns the highest leadership epoch the stage has seen.
func (v *Virtual) Epoch() uint64 { return v.fence.current() }

// FencedCalls returns how many calls the stage rejected for carrying a
// stale leadership epoch.
func (v *Virtual) FencedCalls() uint64 { return v.fence.fencedCalls() }

// ReRegistrations returns how many times the stage re-homed to a parent
// after losing control-plane contact.
func (v *Virtual) ReRegistrations() uint64 {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.reRegistrations
}

// EnforcingConfig configures an enforcing stage.
type EnforcingConfig struct {
	// ID is the cluster-unique stage identifier.
	ID uint64
	// JobID is the job this stage serves.
	JobID uint64
	// Weight is the job's QoS weight.
	Weight float64
	// Network is the transport to listen on.
	Network transport.Network
	// ListenAddr is the address to listen on (":0" auto-assigns).
	ListenAddr string
	// FS is the shared file system admitted operations are submitted to.
	// It may be nil, in which case admitted operations complete instantly
	// (useful in tests).
	FS *pfs.FileSystem
	// Window is the metric measurement window. Zero selects one second.
	Window time.Duration
}

// Enforcing is a functional stage: it rate limits application operations
// according to control-plane rules and reports measured demand and usage.
type Enforcing struct {
	cfg     EnforcingConfig
	server  *rpc.Server
	limiter *ratelimit.MultiBucket
	fence   fence

	who string // "stage N", precomputed: fence checks run on every request

	demand [wire.NumClasses]*metrics.RateCounter
	usage  [wire.NumClasses]*metrics.RateCounter
}

// StartEnforcing launches an enforcing stage.
func StartEnforcing(cfg EnforcingConfig) (*Enforcing, error) {
	if cfg.ListenAddr == "" {
		cfg.ListenAddr = ":0"
	}
	if cfg.Window <= 0 {
		cfg.Window = time.Second
	}
	e := &Enforcing{cfg: cfg, limiter: ratelimit.NewUnlimited(), who: fmt.Sprintf("stage %d", cfg.ID)}
	for c := range e.demand {
		e.demand[c] = metrics.NewRateCounter(cfg.Window, 10)
		e.usage[c] = metrics.NewRateCounter(cfg.Window, 10)
	}
	// The handler reads rate counters and sets the limiter's rates: short
	// locks that Submit, which blocks on admission, never holds while it
	// waits.
	srv, err := rpc.Serve(cfg.Network, cfg.ListenAddr, rpc.HandlerFunc(e.serve), rpc.ServerOptions{
		ReuseRequests: true,
		NonBlocking:   true,
	})
	if err != nil {
		return nil, fmt.Errorf("stage %d: %w", cfg.ID, err)
	}
	e.server = srv
	return e, nil
}

// Info returns the stage's identity, including its bound address.
func (e *Enforcing) Info() Info {
	return Info{ID: e.cfg.ID, JobID: e.cfg.JobID, Weight: e.cfg.Weight, Addr: e.server.Addr().String()}
}

// Close stops the stage.
func (e *Enforcing) Close() error { return e.server.Close() }

// Submit is the application-facing entry point: one I/O operation of the
// given class. It counts toward demand immediately, blocks until the
// control plane's current limit admits it, and then proceeds to the PFS.
func (e *Enforcing) Submit(ctx context.Context, class wire.OpClass) error {
	e.demand[class].Add(time.Now(), 1)
	if err := e.limiter.Admit(ctx, class); err != nil {
		return err
	}
	if e.cfg.FS != nil {
		if _, err := e.cfg.FS.Submit(ctx, e.cfg.JobID, class); err != nil {
			return err
		}
	}
	e.usage[class].Add(time.Now(), 1)
	return nil
}

// Limits exposes the currently enforced limits (for observability).
func (e *Enforcing) Limits() (wire.Rates, bool) { return e.limiter.Limits() }

// Demand-probing parameters: a stage whose measured rate sits within
// saturationFraction of its enforced limit is throttle-bound — its callers
// are blocked inside Submit, so their real appetite is invisible. The
// stage then reports probeGrowth times the limit as demand, letting the
// control algorithm discover how much the job actually wants: a genuinely
// satisfied job stops growing, a contended one keeps bidding until PSFA's
// weighted water level caps it.
const (
	saturationFraction = 0.9
	probeGrowth        = 1.25
)

// probeDemand inflates reported demand for classes saturated at their
// enforced limit.
func (e *Enforcing) probeDemand(d, u wire.Rates) wire.Rates {
	limit, unlimited := e.limiter.Limits()
	if unlimited {
		return d
	}
	for c := range d {
		if limit[c] <= 0 {
			continue
		}
		if d[c] >= limit[c]*saturationFraction || u[c] >= limit[c]*saturationFraction {
			if probe := limit[c] * probeGrowth; probe > d[c] {
				d[c] = probe
			}
		}
	}
	return d
}

// serve handles control-plane requests.
func (e *Enforcing) serve(peer *rpc.Peer, req wire.Message) (wire.Message, error) {
	switch m := req.(type) {
	case *wire.Collect:
		if er := e.fence.check(e.who, m.Epoch); er != nil {
			return nil, er
		}
		now := time.Now()
		var d, u wire.Rates
		for c := range d {
			d[c] = e.demand[c].Rate(now)
			u[c] = e.usage[c].Rate(now)
		}
		d = e.probeDemand(d, u)
		return &wire.CollectReply{
			Cycle: m.Cycle,
			Reports: []wire.StageReport{{
				StageID: e.cfg.ID,
				JobID:   e.cfg.JobID,
				Demand:  d,
				Usage:   u,
			}},
		}, nil
	case *wire.Enforce:
		if er := e.fence.check(e.who, m.Epoch); er != nil {
			return nil, er
		}
		var applied uint32
		for i := range m.Rules {
			if ruleTargets(&m.Rules[i], e.cfg.ID, e.cfg.JobID) {
				e.limiter.ApplyRule(m.Rules[i])
				applied++
			}
		}
		return &wire.EnforceAck{Cycle: m.Cycle, Applied: applied}, nil
	case *wire.Heartbeat:
		e.fence.touch()
		return &wire.HeartbeatAck{EchoUnixMicros: m.SentUnixMicros}, nil
	}
	return nil, fmt.Errorf("stage %d: unexpected %s", e.cfg.ID, req.Type())
}

// Register announces a stage to a parent controller. It retries transient
// failures (the controller may still be booting) with exponential backoff
// and jitter for DefaultRegisterAttempts passes; use RegisterAny directly
// for an address list or different retry bounds.
func Register(ctx context.Context, network transport.Network, parentAddr string, info Info) error {
	_, err := RegisterAny(ctx, network, []string{parentAddr}, info, RegisterOptions{})
	return err
}

package controller

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"github.com/dsrhaslab/sdscale/internal/cyclemem"
	"github.com/dsrhaslab/sdscale/internal/monitor"
	"github.com/dsrhaslab/sdscale/internal/rpc"
	"github.com/dsrhaslab/sdscale/internal/stage"
	"github.com/dsrhaslab/sdscale/internal/telemetry"
	"github.com/dsrhaslab/sdscale/internal/trace"
	"github.com/dsrhaslab/sdscale/internal/transport"
	"github.com/dsrhaslab/sdscale/internal/wire"
)

// stageOpts is what a role's configuration contributes to its stageCore.
type stageOpts struct {
	// who prefixes operational logs: "controller", "aggregator 7", "peer 2".
	who     string
	network transport.Network
	// fanMode, par and callTimeout shape every fan-out (see fanOutOpts).
	fanMode     FanOutMode
	par         int
	callTimeout time.Duration
	breaker     breakerConfig
	// incremental and floor are the role's Incremental/IncrementalFloor;
	// delta is its DeltaEnforcement. init resolves all three.
	incremental bool
	floor       time.Duration
	delta       bool
	meter       *transport.Meter
	cpu         *monitor.CPUMeter
	tracer      *trace.Tracer
	logFn       func(format string, args ...any)

	// The per-role hooks, all optional. onCallError sees every failed child
	// call the caller's own ctx did not cause (Global: stale-epoch
	// step-down). walRules and walEvict append to the role's durable store.
	onCallError func(c *child, err error)
	walRules    func(cycle, childID uint64, rules []wire.Rule)
	walEvict    func(id uint64)
}

// stageCore is everything a controller does towards its children, written
// once: the membership and its breaker policy, the dial, the accounted
// fan-outs, the push ingest, the pre-cycle probe/evict/split, the phase and
// cycle frames, and the two halves of the stage-facing control cycle —
// gatherReports and enforceStageRules. Global, Aggregator and Peer embed it
// by value and differ only in what they do between those two halves (see
// DESIGN.md §6).
//
// Concurrency: scratch, arena and cyc are cycle-serial — they belong to the
// one goroutine that runs the role's cycles (for an Aggregator, its parent's
// serialized collect→enforce handlers). Everything else is safe from any
// goroutine. Fan-outs issued off that goroutine go through offCycle.
type stageCore struct {
	stageOpts

	members    *memberSet
	faults     *telemetry.FaultCounters
	pipe       *telemetry.PipelineStats
	callErrors atomic.Uint64

	scratch cycleScratch
	arena   cyclemem.Arena
	cyc     cycleMem

	// statsScr backs Stats() snapshots (guarded by its own mutex).
	statsScr statsScratch
}

// init wires the core in place (it holds locks and atomics, so it is never
// copied) and resolves the mode axes once. Incremental requires the
// pipelined fan-out: FanOutBlocking keeps the paper-faithful full cycle —
// the reproduction presets measure the bounded blocking pool, and layering
// incremental skips on top of it would measure neither design. Incremental
// implies delta enforcement: recomputing over a mostly-unchanged cache
// yields mostly-unchanged rules, and re-sending those would undo the
// savings. The heartbeat floor defaults to StaleAfter.
func (k *stageCore) init(o stageOpts) {
	o.breaker = o.breaker.withDefaults()
	o.incremental = o.incremental && o.fanMode == FanOutPipelined
	o.delta = o.delta || o.incremental
	if o.floor <= 0 {
		o.floor = o.breaker.StaleAfter
	}
	k.stageOpts = o
	k.members = newMemberSet()
	k.faults = &telemetry.FaultCounters{}
	k.pipe = &telemetry.PipelineStats{}
}

func (k *stageCore) logf(format string, args ...any) {
	if k.logFn != nil {
		k.logFn(format, args...)
	}
}

// Faults returns the controller's fault-tolerance counters (quarantines,
// readmissions, degraded cycles, probes, stale-report ages).
func (k *stageCore) Faults() *telemetry.FaultCounters { return k.faults }

// Pipeline returns the controller's live fan-out telemetry (per-phase
// in-flight gauges and per-cycle allocation counters). Stats().Pipeline is
// the snapshot form.
func (k *stageCore) Pipeline() *telemetry.PipelineStats { return k.pipe }

// Tracer returns the tracer the controller records cycle, phase, and
// per-call spans into; nil when tracing is off.
func (k *stageCore) Tracer() *trace.Tracer { return k.tracer }

// HealthCheck heartbeats every child concurrently and reports liveness and
// round-trip statistics. It does not evict: operators use it to inspect the
// control plane between cycles without affecting membership.
func (k *stageCore) HealthCheck(ctx context.Context) Health {
	return sweepHealth(ctx, k.members.snapshot(), k.par, k.callTimeout)
}

// MemoryFootprint estimates the bytes of state held for the managed
// children: the membership table, per-child connection buffers, and the
// stage lists behind aggregator children. It implements
// monitor.MemoryReporter for per-role memory attribution in single-process
// simulations; Global and Peer add their own tables on top.
func (k *stageCore) MemoryFootprint() uint64 {
	var total uint64
	for _, c := range k.members.snapshot() {
		total += footprintPerChild + uint64(len(c.info.Addr)) + uint64(c.numStages())*footprintPerStage
	}
	return total
}

const (
	// footprintPerChild reflects the measured in-process heap cost of one
	// managed connection (RPC client, pending map, frame buffers,
	// simulated-conn queues): ~24 KiB of the ~39 KiB a stage+connection
	// pair costs.
	footprintPerChild = 24 << 10
	footprintPerStage = 160 // stage.Info + rule scratch
	footprintPerJob   = 96  // weights and aggregation entries
)

// snapshot fills the role-independent part of a Stats() snapshot; Stages
// defaults to the direct children.
func (k *stageCore) snapshot() ControllerStats {
	ids := k.statsScr.quarantined(k.members)
	n := k.members.size()
	return ControllerStats{
		Children:       n,
		Stages:         n,
		Quarantined:    len(ids),
		QuarantinedIDs: ids,
		CallErrors:     k.callErrors.Load(),
		Evictions:      k.faults.Evictions(),
		Faults:         k.faults.Summarize(),
		Pipeline:       k.pipe.Snapshot(),
	}
}

// dial opens the long-lived self-healing connection to a child. Replies are
// decoded into per-connection reuse caches, and unsolicited pushes feed the
// dirty set (only stages ever push).
func (k *stageCore) dial(ctx context.Context, addr string, id uint64) (*rpc.ReconnectingClient, error) {
	return rpc.DialReconnecting(ctx, k.network, addr,
		rpc.DialOptions{Meter: k.meter, Tracer: k.tracer, SpanTag: id,
			ReuseReplies: true, ReuseHits: k.pipe.ReuseCounter(),
			OnPush: k.onPush},
		k.breaker.reconnectPolicy())
}

// addChild dials a child and admits it to the membership.
func (k *stageCore) addChild(ctx context.Context, role wire.Role, info stage.Info, stages []stage.Info) (*child, error) {
	cli, err := k.dial(ctx, info.Addr, info.ID)
	if err != nil {
		return nil, fmt.Errorf("%s: dial %s %d at %s: %w", k.who, role, info.ID, info.Addr, err)
	}
	c := &child{info: info, role: role, cli: cli, stages: append([]stage.Info(nil), stages...)}
	if !k.members.add(c) {
		cli.Close()
		return nil, fmt.Errorf("%s: duplicate %s ID %d", k.who, role, info.ID)
	}
	return c, nil
}

// reRegister treats a registration from a known child as a reconnect: the
// stale connection is replaced and the breaker state kept, so a child that
// rebooted — or re-homed to a promoted standby — resumes service without a
// second identity.
func (k *stageCore) reRegister(ctx context.Context, c *child, addr string) error {
	cli, err := k.dial(ctx, addr, c.info.ID)
	if err != nil {
		return fmt.Errorf("%s: redial %s %d at %s: %w", k.who, c.role, c.info.ID, addr, err)
	}
	c.replaceClient(cli)
	k.faults.ReRegistration()
	k.logf("%s: %s %d re-registered from %s", k.who, c.role, c.info.ID, addr)
	return nil
}

// stageEntries lists the managed children in wire form (StageList replies).
func (k *stageCore) stageEntries() []wire.StageEntry {
	children := k.members.snapshot()
	out := make([]wire.StageEntry, len(children))
	for i, c := range children {
		out[i] = wire.StageEntry{ID: c.info.ID, JobID: c.info.JobID, Weight: c.info.Weight, Addr: c.info.Addr}
	}
	return out
}

// onPush folds a stage's unsolicited ReportDelta into its dirty-set entry.
// It runs on the connection's read loop, so it stays cheap: one membership
// lookup plus a capacity-reusing cache write, no blocking calls.
func (k *stageCore) onPush(m wire.Message) {
	rd, ok := m.(*wire.ReportDelta)
	if !ok {
		return
	}
	if c := k.members.get(rd.Report.StageID); c != nil && c.role == wire.RoleStage {
		c.notePush(rd, time.Now())
	}
}

// accountCall applies a call outcome to the error counter, the role's hook,
// and the circuit breaker. ctx is the caller's own context (not the per-call
// or phase deadline): errors it caused are excluded, so a shutdown
// mid-scatter charges no child a strike.
func (k *stageCore) accountCall(ctx context.Context, c *child, err error) {
	if err != nil && ctx.Err() == nil {
		k.callErrors.Add(1)
		if k.onCallError != nil {
			k.onCallError(c, err)
		}
	}
	k.recordCall(ctx, c, err)
}

// cycleFan returns the dispatch parameters for a fan-out issued by the cycle
// goroutine: call handles come from the cycle arena.
func (k *stageCore) cycleFan(gauge *telemetry.Gauge) fanOutOpts {
	o := k.offCycle(gauge)
	o.arena, o.calls = &k.arena, &k.cyc.calls
	return o
}

// offCycle returns the dispatch parameters for a fan-out issued outside the
// cycle schedule, possibly while a cycle runs on another goroutine. It takes
// nothing from the cycle-serial arena (call handles are heap slots). The
// same caller must not read a reply's fields either: replies are decoded
// into per-connection reuse caches, so the cycle's next response of that
// type overwrites the one an off-cycle harvest is holding. The reply's type
// is all it may look at.
func (k *stageCore) offCycle(gauge *telemetry.Gauge) fanOutOpts {
	return fanOutOpts{mode: k.fanMode, par: k.par, timeout: k.callTimeout, gauge: gauge}
}

// fanOutBroadcast dispatches one identical request to every child as a
// marshal-once shared frame: the body is encoded once (per codec version in
// use) and each call writes just a header plus a memcopy. It takes ownership
// of f — the producer reference is released once every call holds its own —
// and attributes the sends and actual encodes to the pipeline stats, whose
// ratio is the per-cycle marshal fan-in. onDone follows fanOutCalls' contract.
func (k *stageCore) fanOutBroadcast(ctx context.Context, o fanOutOpts, children []*child,
	f *rpc.SharedFrame, onDone func(i int, resp wire.Message, err error)) {
	k.fanOutCalls(ctx, o, children, func(ctx context.Context, i int) *rpc.Call {
		return children[i].client().GoShared(ctx, f)
	}, onDone)
	f.Release()
	k.pipe.AddSharedSends(uint64(len(children)))
	k.pipe.AddSharedEncodes(f.Encodes())
}

// prepareCycle runs the pre-cycle breaker maintenance: half-open probes for
// quarantined children (readmitting responders), eviction of children whose
// quarantine outlived EvictAfter, and the active/quarantined split the
// cycle's scatter phases work from. The returned slices are the cycle
// scratch, valid until the next prepareCycle.
func (k *stageCore) prepareCycle(ctx context.Context) (active, quarantined []*child) {
	active, quarantined = k.scratch.split(k.members)
	if len(quarantined) == 0 {
		return active, quarantined
	}
	for _, c := range k.sweepProbes(ctx, quarantined) {
		if k.members.remove(c.info.ID) != nil {
			c.client().Close()
			if k.walEvict != nil {
				k.walEvict(c.info.ID)
			}
			k.faults.Evict()
			k.logf("%s: evicted child %d after %v in quarantine", k.who, c.info.ID, k.breaker.EvictAfter)
		}
	}
	return k.scratch.split(k.members)
}

// setPhase stamps the tracer's cycle context, which every child-call span
// issued until the next setPhase inherits.
func (k *stageCore) setPhase(p trace.Phase, cycle, epoch uint64) {
	k.tracer.SetContext(cycle, epoch, uint8(k.fanMode), p)
}

// phaseSpan is one timed cycle phase between beginPhase and endPhase.
type phaseSpan struct {
	phase        trace.Phase
	cycle, epoch uint64
	start        time.Time
}

func (k *stageCore) beginPhase(p trace.Phase, cycle, epoch uint64) phaseSpan {
	k.setPhase(p, cycle, epoch)
	return phaseSpan{phase: p, cycle: cycle, epoch: epoch, start: time.Now()}
}

// endPhase records the phase span and returns its duration.
func (k *stageCore) endPhase(s phaseSpan) time.Duration {
	d := time.Since(s.start)
	k.tracer.RecordPhase(s.phase, s.cycle, s.epoch, uint8(k.fanMode), s.start, d)
	return d
}

// busy charges the time since start to the role's CPU meter: the compute
// sections (report assembly, aggregation, the control algorithm) call it
// when they end.
func (k *stageCore) busy(start time.Time) {
	if k.cpu != nil {
		k.cpu.Add(time.Since(start))
	}
}

// runCycle is the frame around one control cycle of a role that drives its
// own cycles (Global, Peer). Half-open probe RPCs run before the phases and
// are attributed to the cycle they gate — quarantined children receive no
// in-phase traffic, so PhaseProbe is the only phase their calls ever carry.
// tick then advances the role's cycle counter and body runs the phases
// inside a fresh arena generation: every slab draw reuses last cycle's
// capacity, and last cycle's rule table is invalidated. The caller records
// a successful cycle's breakdown; a failed one leaves only its cycle span.
func (k *stageCore) runCycle(ctx context.Context, probeCycle, probeEpoch uint64,
	tick func() (cycle, epoch uint64),
	body func(ctx context.Context, cycle, epoch uint64, active, quarantined []*child) (telemetry.Breakdown, error),
) (telemetry.Breakdown, error) {
	k.setPhase(trace.PhaseProbe, probeCycle, probeEpoch)
	active, quarantined := k.prepareCycle(ctx)
	if len(active)+len(quarantined) == 0 {
		return telemetry.Breakdown{}, ErrNoChildren
	}
	cycle, epoch := tick()
	if len(quarantined) > 0 {
		k.faults.DegradedCycle()
	}
	start := time.Now()
	allocsBefore := telemetry.AllocsNow()
	k.arena.Begin()
	b, err := body(ctx, cycle, epoch, active, quarantined)
	k.pipe.RecordCycleAllocs(telemetry.AllocsNow() - allocsBefore)
	k.pipe.RecordArena(arenaSnapshot(k.arena.Stats()))
	b.Total = time.Since(start)
	k.tracer.RecordCycle(cycle, epoch, uint8(k.fanMode), start, b.Total, err != nil)
	return b, err
}

// runLoop executes cycles until ctx ends. A zero interval runs the paper's
// stress workload (back-to-back cycles); otherwise each cycle starts
// interval after the previous one started. An empty control plane idles
// rather than spinning.
func runLoop(ctx context.Context, interval time.Duration, cycle func(context.Context) (telemetry.Breakdown, error)) error {
	for {
		cycleStart := time.Now()
		wait := interval
		if _, err := cycle(ctx); err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			if !errors.Is(err, ErrNoChildren) {
				return err
			}
			cycleStart, wait = time.Now(), 10*time.Millisecond
		}
		if sleep := wait - time.Since(cycleStart); sleep > 0 {
			select {
			case <-time.After(sleep):
			case <-ctx.Done():
			}
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
	}
}

// gatherReports is the collect half of the stage-facing cycle: it obtains
// one report set covering the active children plus the quarantined ones'
// bounded-stale last-known reports (degraded mode — they receive no
// traffic).
//
// On the full path every active child is sent m as one marshal-once shared
// frame and the set is assembled from the replies that arrived this cycle: a
// child that did not answer contributes nothing, and so gets no rule. Reply
// slots are index-disjoint, so blocking mode's concurrent harvest keeps a
// deterministic report order; they alias the per-connection reuse caches,
// which is safe exactly until the connection's next CollectReply — next
// cycle, after compute has consumed them.
//
// On the incremental path stages push report deltas as their rates move, so
// the per-child cache already holds a current report for every live, quiet
// child. The dirty set is claimed, the collect shrinks to the edge cases —
// never reported, forced after re-registration or readmission, cache past
// the heartbeat floor, no connection attached — and the set is assembled
// from the cache: pushed deltas, the collects just made, and
// untouched-but-fresh reports all read back alike. With mayIdle set, a cycle
// with nothing dirty, nothing to collect and nobody quarantined sends and
// assembles nothing and reports idle.
//
// A child whose client is detached after a failed call and redialing can
// push nothing. Collecting it every cycle is what lets its consecutive
// failures reach MaxFailures, so the breaker — not the floor timer — decides
// about a child that went silent behind a fresh cache.
//
// The returned rows live in the cycle arena.
func (k *stageCore) gatherReports(ctx context.Context, m wire.Collect, active, quarantined []*child,
	mayIdle bool) (reports []wire.StageReport, idle bool) {
	targets := active
	if k.incremental {
		now := time.Now()
		dirty := 0
		targets = k.scratch.collect[:0]
		for _, c := range active {
			wasDirty, collect := c.incrementalState(now, k.floor)
			if wasDirty {
				dirty++
			}
			if collect || !c.client().Connected() {
				targets = append(targets, c)
			}
		}
		k.scratch.collect = targets
		k.pipe.RecordDirty(dirty)
		k.pipe.AddSuppressedCollects(uint64(len(active) - len(targets)))
		if mayIdle && dirty == 0 && len(targets) == 0 && len(quarantined) == 0 {
			return nil, true
		}
	}
	var replies []*wire.CollectReply
	if len(targets) > 0 {
		replies = k.cyc.replies.Take(&k.arena, len(targets))
		req := m // copied here so that only a cycle that sends pays for the frame
		k.fanOutBroadcast(ctx, k.cycleFan(&k.pipe.CollectInFlight), targets, rpc.NewSharedFrame(&req),
			func(i int, resp wire.Message, _ error) {
				if r, ok := resp.(*wire.CollectReply); ok {
					replies[i] = r
					targets[i].noteReport(r, time.Now())
				}
			})
	}

	start := time.Now()
	reports = k.cyc.reports.Take(&k.arena, len(active))[:0]
	if k.incremental {
		for _, c := range active {
			reports, _, _ = c.appendCachedReports(reports, start, k.breaker.StaleAfter)
		}
	} else {
		for _, r := range replies {
			if r != nil {
				reports = append(reports, r.Reports...)
			}
		}
	}
	reports, _ = k.appendStale(reports, nil, quarantined)
	k.busy(start)
	return reports, false
}

// appendStale folds each quarantined child's last-known report, if it is
// still younger than StaleAfter, into the cycle's inputs, charging the use —
// or the drop of a report that aged out, so operators can see degraded
// cycles running partially blind — to the fault telemetry.
//
// This is the one place the report cache's aliasing rule matters. A stage
// child's cache is rewritten in place by concurrent pushes (a quarantined
// stage can still push), so its rows are copied onto rows under the child's
// lock. An aggregator child never pushes — only the cycle goroutine writes
// its cache — so its reply is appended to msgs by reference.
func (k *stageCore) appendStale(rows []wire.StageReport, msgs []wire.Message, quarantined []*child) ([]wire.StageReport, []wire.Message) {
	now := time.Now()
	for _, c := range quarantined {
		var age time.Duration
		var ok bool
		if c.role == wire.RoleStage {
			rows, age, ok = c.appendCachedReports(rows, now, k.breaker.StaleAfter)
		} else {
			var m wire.Message
			if m, age, ok = c.staleReport(now, k.breaker.StaleAfter); ok {
				msgs = append(msgs, m)
			}
		}
		if ok {
			k.faults.UseStaleReport(age)
		} else if age > 0 {
			k.faults.DropStaleReport(age)
		}
	}
	return rows, msgs
}

// sendable applies the delta-enforcement and write-ahead policy to the batch
// computed for one child and returns what to send it (nothing, when empty).
// With delta set only the rules that changed since the last send go out, and
// are logged. Without it the full batch is sent every cycle, but only
// changes are worth a log record: the diff keeps the WAL O(changed rules),
// and logging before the send keeps the store a superset of what the fleet
// holds.
func (k *stageCore) sendable(cycle uint64, c *child, batch []wire.Rule, delta bool) []wire.Rule {
	if len(batch) == 0 || (!delta && k.walRules == nil) {
		return batch
	}
	changed := c.filterChanged(batch)
	if k.walRules != nil && len(changed) > 0 {
		k.walRules(cycle, c.info.ID, changed)
	}
	if delta {
		return changed
	}
	return batch
}

// enforceStageRules is the enforce half of the stage-facing cycle: each
// active child is sent the run of rules addressed to it in the
// StageID-sorted rules, subject to sendable (incremental mode implies
// delta). A child with no rule — it had no report this cycle — is sent
// nothing. The request messages are index-disjoint arena slots, safe from
// blocking mode's concurrent issue. onDone, which may be nil, sees every
// outcome.
//
// sendable commits a batch to the child's rule cache when it takes the diff,
// before the call is issued. A call that then fails — the caller's own
// cancellation included: delivery is unknown — has its batch withdrawn, so
// the cache says what the child holds, not what was attempted, and the next
// cycle recomputes and re-sends.
func (k *stageCore) enforceStageRules(ctx context.Context, cycle, epoch uint64, children []*child,
	rules []wire.Rule, onDone func(i int, resp wire.Message, err error)) {
	enfBuf := k.cyc.enfBuf.Take(&k.arena, len(children))
	k.fanOutCalls(ctx, k.cycleFan(&k.pipe.EnforceInFlight), children,
		func(ctx context.Context, i int) *rpc.Call {
			c := children[i]
			batch := stageRun(rules, c.info.ID)
			if len(batch) == 0 {
				return nil
			}
			if batch = k.sendable(cycle, c, batch, k.delta); len(batch) == 0 {
				if k.incremental {
					k.pipe.AddSuppressedEnforces(1)
				}
				return nil
			}
			enfBuf[i] = wire.Enforce{Cycle: cycle, Rules: batch, Epoch: epoch}
			return c.client().Go(ctx, &enfBuf[i])
		},
		func(i int, resp wire.Message, err error) {
			if err != nil {
				children[i].forgetRules(enfBuf[i].Rules)
			}
			if onDone != nil {
				onDone(i, resp, err)
			}
		})
}

// stageRun returns the contiguous run of rules addressed to stageID in a
// StageID-sorted slice, in the slice's order.
func stageRun(rules []wire.Rule, stageID uint64) []wire.Rule {
	lo := sort.Search(len(rules), func(i int) bool { return rules[i].StageID >= stageID })
	hi := lo
	for hi < len(rules) && rules[hi].StageID == stageID {
		hi++
	}
	return rules[lo:hi:hi]
}

// sumApplied returns an onDone that adds every EnforceAck's applied-rule
// count to total (atomically: blocking mode harvests concurrently).
func sumApplied(total *atomic.Uint32) func(i int, resp wire.Message, err error) {
	return func(_ int, resp wire.Message, _ error) {
		if ack, ok := resp.(*wire.EnforceAck); ok {
			total.Add(ack.Applied)
		}
	}
}

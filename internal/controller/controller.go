// Package controller implements the sdscale control plane: the global
// controller that runs the control cycle (collect → compute → enforce,
// paper §II-B) and the aggregator controllers that form the extra level of
// the hierarchical design (paper Fig. 3).
//
// Topologies:
//
//   - Flat (paper Fig. 2): one Global whose children are data-plane stages.
//     It collects every stage's report, runs the control algorithm, and
//     enforces one rule per stage. The controller holds one long-lived
//     connection per stage, which is exactly why the design hits the
//     per-node connection limit (§IV-A).
//   - Hierarchical (paper Fig. 3): one Global whose children are
//     Aggregators, each owning a disjoint set of stages. Aggregators fan
//     collections out, pre-aggregate per-job metrics (shrinking the
//     global's inbound traffic), and fan enforcement rules back down. The
//     global still computes rules for every stage (§IV-B, Table III).
//
// Resource accounting: each controller role owns a transport.Meter (bytes)
// and a monitor.CPUMeter (busy time: the compute sections, and each
// fan-out's issue loop, which encodes and writes the child requests), which
// the experiment harness turns into the rows of the paper's Tables II–IV.
package controller

import (
	"context"
	"sync"
	"time"

	"github.com/dsrhaslab/sdscale/internal/rpc"
	"github.com/dsrhaslab/sdscale/internal/stage"
	"github.com/dsrhaslab/sdscale/internal/wire"
)

// DefaultFanOut is the bounded parallelism controllers use when fanning
// requests out to children. It models the fixed handler pool of the
// paper's gRPC-based prototype: per-child work beyond the pool width
// accumulates, which is what makes control-cycle latency grow with the
// number of children (Fig. 4).
const DefaultFanOut = 8

// DefaultMaxFailures is how many consecutive call failures a controller
// tolerates before quarantining a child (tripping its circuit breaker).
const DefaultMaxFailures = 3

// Circuit-breaker defaults shared by all controller roles.
const (
	// DefaultProbeInterval is the base interval between half-open
	// heartbeat probes to a quarantined child.
	DefaultProbeInterval = 100 * time.Millisecond
	// DefaultMaxProbeInterval caps the probe backoff.
	DefaultMaxProbeInterval = time.Second
	// DefaultStaleAfter bounds how old a quarantined child's last-known
	// report may be and still feed a degraded cycle.
	DefaultStaleAfter = 10 * time.Second
)

// breakerConfig is the per-child circuit-breaker policy shared by the
// three controller roles.
type breakerConfig struct {
	// MaxFailures consecutive call errors trip the breaker.
	MaxFailures int
	// ProbeInterval is the base half-open probe interval; it doubles after
	// each failed probe up to MaxProbeInterval.
	ProbeInterval    time.Duration
	MaxProbeInterval time.Duration
	// StaleAfter bounds the age of last-known reports used by degraded
	// cycles.
	StaleAfter time.Duration
	// EvictAfter, when positive, permanently removes a child quarantined
	// for that long. Zero never evicts.
	EvictAfter time.Duration
}

func (bc breakerConfig) withDefaults() breakerConfig {
	if bc.MaxFailures <= 0 {
		bc.MaxFailures = DefaultMaxFailures
	}
	if bc.ProbeInterval <= 0 {
		bc.ProbeInterval = DefaultProbeInterval
	}
	if bc.MaxProbeInterval <= 0 {
		bc.MaxProbeInterval = DefaultMaxProbeInterval
	}
	if bc.MaxProbeInterval < bc.ProbeInterval {
		bc.MaxProbeInterval = bc.ProbeInterval
	}
	if bc.StaleAfter <= 0 {
		bc.StaleAfter = DefaultStaleAfter
	}
	return bc
}

// reconnectPolicy derives a child connection's redial policy from the
// breaker policy, so the transport never lags the probe cadence by more
// than one probe interval.
func (bc breakerConfig) reconnectPolicy() rpc.ReconnectPolicy {
	base := bc.ProbeInterval / 4
	if base < 5*time.Millisecond {
		base = 5 * time.Millisecond
	}
	return rpc.ReconnectPolicy{BaseDelay: base, MaxDelay: bc.MaxProbeInterval}
}

// child is a controller's handle to one downstream component (a stage or an
// aggregator), with its long-lived self-healing RPC connection and its
// circuit-breaker state.
type child struct {
	info stage.Info
	role wire.Role
	cli  *rpc.ReconnectingClient
	// stages lists the stages behind an aggregator child; nil for stages.
	stages []stage.Info

	mu    sync.Mutex
	fails int
	// Circuit-breaker state: a quarantined child is skipped by the
	// collect/enforce scatter and probed with half-open heartbeats until
	// one succeeds (readmission) or EvictAfter expires (eviction).
	quarantined   bool
	quarantinedAt time.Time
	nextProbe     time.Time
	probeDelay    time.Duration
	// lastReport is the most recent successful collect response, kept so
	// degraded cycles can proceed on slightly stale data while the child
	// is quarantined; lastReportAt bounds its staleness.
	lastReport   wire.Message
	lastReportAt time.Time
	// lastRules caches the most recently enforced rule per stage for
	// delta enforcement (skip sends when nothing changed).
	lastRules map[uint64]wire.Rule
	// Incremental-mode state: dirty marks a report change the next
	// incremental cycle must recompute over (set by pushes, claimed by the
	// cycle); pushSeq orders pushes from this child so a reordered stale
	// delta never overwrites a newer report; forceCollect schedules one
	// explicit collect (set on re-registration and readmission, when
	// whatever the cache holds may predate the disruption).
	dirty        bool
	pushSeq      uint64
	forceCollect bool
}

// filterChanged returns only the rules that differ from what was last sent
// to this child, updating the cache. With deterministic demand (the stress
// workload) allocations repeat bit-for-bit, so exact comparison suffices. The
// cache is updated ahead of the send; forgetRules undoes it if the send fails.
func (c *child) filterChanged(rules []wire.Rule) []wire.Rule {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.lastRules == nil {
		c.lastRules = make(map[uint64]wire.Rule, len(rules))
	}
	changed := rules[:0:0]
	for _, r := range rules {
		if prev, ok := c.lastRules[r.StageID]; !ok || prev != r {
			changed = append(changed, r)
			c.lastRules[r.StageID] = r
		}
	}
	return changed
}

// forgetRules withdraws rules from the delta-enforcement cache after the
// call that carried them failed, and marks the child dirty so an incremental
// cycle recomputes, and so re-sends them, instead of short-circuiting.
func (c *child) forgetRules(rules []wire.Rule) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, r := range rules {
		delete(c.lastRules, r.StageID)
	}
	c.dirty = true
}

// recordFailure counts one failed call and reports whether it tripped the
// breaker (the quarantine transition happens exactly once).
func (c *child) recordFailure(bc breakerConfig, now time.Time) (tripped bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.fails++
	if c.quarantined || c.fails < bc.MaxFailures {
		return false
	}
	c.quarantined = true
	c.quarantinedAt = now
	c.probeDelay = bc.ProbeInterval
	c.nextProbe = now.Add(c.probeDelay)
	return true
}

// recordSuccess resets the failure count and reports whether it readmitted
// a quarantined child. A readmitted child is marked dirty with a forced
// collect: its cached report (and possibly its rules) predate the outage, so
// the next incremental cycle must refresh it rather than fast-path past it.
// The dirty flag a child accumulated while quarantined survives — pushes
// that arrived during the outage still count.
func (c *child) recordSuccess() (readmitted bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.fails = 0
	if !c.quarantined {
		return false
	}
	c.quarantined = false
	c.dirty = true
	c.forceCollect = true
	return true
}

// isQuarantined reports the breaker state.
func (c *child) isQuarantined() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.quarantined
}

// quarantineAge returns how long the child has been quarantined (zero if it
// is not).
func (c *child) quarantineAge(now time.Time) time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.quarantined {
		return 0
	}
	return now.Sub(c.quarantinedAt)
}

// probeDue reports whether a quarantined child should be probed now.
func (c *child) probeDue(now time.Time) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.quarantined && !now.Before(c.nextProbe)
}

// failProbe backs the probe schedule off after an unsuccessful half-open
// probe.
func (c *child) failProbe(bc breakerConfig, now time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.probeDelay *= 2
	if c.probeDelay > bc.MaxProbeInterval {
		c.probeDelay = bc.MaxProbeInterval
	}
	c.nextProbe = now.Add(c.probeDelay)
}

// noteReport caches the child's latest successful collect response for
// degraded cycles. The message is deep-copied into child-owned storage
// (reusing its capacity, so steady state allocates nothing): with reply
// reuse enabled the decoded message is overwritten by the connection's next
// response of the same type, so retaining it directly would corrupt the
// cache.
func (c *child) noteReport(m wire.Message, now time.Time) {
	c.mu.Lock()
	c.lastReport = copyReport(c.lastReport, m)
	c.lastReportAt = now
	c.mu.Unlock()
}

// copyReport deep-copies a collect response into dst's storage when the
// types match (reusing slice capacity), allocating fresh otherwise. Types
// without retained slices are stored as-is.
func copyReport(dst, src wire.Message) wire.Message {
	switch s := src.(type) {
	case *wire.CollectReply:
		d, ok := dst.(*wire.CollectReply)
		if !ok {
			d = &wire.CollectReply{}
		}
		d.Cycle = s.Cycle
		d.Reports = append(d.Reports[:0], s.Reports...)
		return d
	case *wire.CollectAggReply:
		d, ok := dst.(*wire.CollectAggReply)
		if !ok {
			d = &wire.CollectAggReply{}
		}
		d.Cycle, d.AggregatorID = s.Cycle, s.AggregatorID
		d.Jobs = append(d.Jobs[:0], s.Jobs...)
		return d
	}
	return src
}

// notePush folds an unsolicited ReportDelta into the child's report cache
// and marks it dirty. The report is stored as a single-entry CollectReply so
// the degraded-cycle and incremental compute paths see one shape regardless
// of how the data arrived; storage is child-owned and capacity-reusing, so
// steady-state pushes allocate nothing after the first. Reordered stale
// deltas (Seq at or below the last accepted, without the Full marker that
// follows a stage restart or epoch change) are dropped. It reports whether
// the push was accepted.
func (c *child) notePush(rd *wire.ReportDelta, now time.Time) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !rd.Full && rd.Seq <= c.pushSeq {
		return false
	}
	c.pushSeq = rd.Seq
	d, ok := c.lastReport.(*wire.CollectReply)
	if !ok {
		d = &wire.CollectReply{}
	}
	d.Reports = append(d.Reports[:0], rd.Report)
	c.lastReport = d
	c.lastReportAt = now
	c.dirty = true
	return true
}

// incrementalState claims the child's dirty flag for the cycle being
// prepared and reports whether the incremental collect set must include it:
// a forced collect is pending (claimed too), no report was ever cached, or
// the cache is older than floor (the heartbeat-floor check that makes a
// silent child distinguishable from an unchanged one — a live pushing child
// refreshes its cache at the stage-side floor, which is tighter). A push
// arriving after the claim re-dirties the child for the next cycle.
func (c *child) incrementalState(now time.Time, floor time.Duration) (wasDirty, collect bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	wasDirty = c.dirty
	c.dirty = false
	collect = c.forceCollect || c.lastReport == nil || now.Sub(c.lastReportAt) >= floor
	c.forceCollect = false
	return wasDirty, collect
}

// staleReport returns the cached report and its age. ok is true only if a
// report exists and is strictly younger than staleAfter: a report aged
// exactly StaleAfter is already too old to feed a degraded cycle. When a
// report exists but has aged out, the age is still returned (with ok
// false) so the drop can be accounted.
func (c *child) staleReport(now time.Time, staleAfter time.Duration) (m wire.Message, age time.Duration, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.lastReport == nil {
		return nil, 0, false
	}
	age = now.Sub(c.lastReportAt)
	if age >= staleAfter {
		return nil, age, false
	}
	return c.lastReport, age, true
}

// appendCachedReports appends the cached report's stage rows to dst while
// holding the child's lock. staleReport hands out the cache by reference,
// which is safe only while nothing rewrites it; a stage child's cache is
// rewritten in place by concurrent pushes (notePush reuses the slice
// capacity), so every compute path that folds stage caches must copy the
// rows out under the lock or risk a torn read. Age and ok follow
// staleReport's semantics; a cache of a non-stage shape reports ok false.
func (c *child) appendCachedReports(dst []wire.StageReport, now time.Time, staleAfter time.Duration) ([]wire.StageReport, time.Duration, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.lastReport == nil {
		return dst, 0, false
	}
	age := now.Sub(c.lastReportAt)
	if age >= staleAfter {
		return dst, age, false
	}
	r, ok := c.lastReport.(*wire.CollectReply)
	if !ok {
		return dst, age, false
	}
	return append(dst, r.Reports...), age, true
}

// seedRules primes the delta-enforcement cache with rules a predecessor
// controller already sent, so a promoted standby's first cycle diffs
// against what the stages actually hold instead of re-sending everything.
func (c *child) seedRules(rules []wire.Rule) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.lastRules == nil {
		c.lastRules = make(map[uint64]wire.Rule, len(rules))
	}
	for _, r := range rules {
		c.lastRules[r.StageID] = r
	}
}

// snapshotRules copies the delta-enforcement cache for state replication.
func (c *child) snapshotRules() []wire.Rule {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.lastRules) == 0 {
		return nil
	}
	out := make([]wire.Rule, 0, len(c.lastRules))
	for _, r := range c.lastRules {
		out = append(out, r)
	}
	return out
}

// replaceClient swaps in a fresh connection after a known child
// re-registers, closing the stale one. Breaker state is deliberately kept:
// a re-registration proves the child is alive, but readmission still goes
// through the normal success path so telemetry sees it. The child's info is
// immutable — a re-registration may only change the connection.
//
// The delta-enforcement cache is cleared: a child that re-registers has
// restarted (or re-homed to a promoted standby), so whatever rules it held
// are gone, and the next cycle must send it the full rule set rather than
// diffing against state the child no longer has.
func (c *child) replaceClient(cli *rpc.ReconnectingClient) {
	c.mu.Lock()
	old := c.cli
	c.cli = cli
	c.lastRules = nil
	// The restarted child's push sequence starts over and its cached report
	// predates the restart: accept any incoming sequence, refresh with an
	// explicit collect, and make the next incremental cycle recompute.
	c.pushSeq = 0
	c.dirty = true
	c.forceCollect = true
	c.mu.Unlock()
	if old != nil {
		old.Close()
	}
}

// client returns the child's current connection.
func (c *child) client() *rpc.ReconnectingClient {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cli
}

// recordCall applies one call's outcome to the child's breaker. Errors
// caused by the caller's own context (shutdown or cycle-deadline expiry
// mid-scatter) are not the child's fault and leave the breaker untouched.
func (k *stageCore) recordCall(ctx context.Context, c *child, err error) {
	if err == nil {
		if c.recordSuccess() {
			k.faults.Readmit()
			k.logf("%s: readmitted child %d", k.who, c.info.ID)
		}
		return
	}
	// Pipelined calls surface connection death at harvest time rather than
	// inside ReconnectingClient.Call; give the wrapper the chance to start
	// its background redial (a no-op for healthy connections and for the
	// synchronous path, which already checked inline).
	c.client().NoteError(ctx, err)
	if ctx.Err() != nil {
		return // caller-side cancellation, not a child failure
	}
	if c.recordFailure(k.breaker, time.Now()) {
		k.faults.Quarantine()
		k.logf("%s: quarantined child %d after %d consecutive failures", k.who, c.info.ID, k.breaker.MaxFailures)
	}
}

// splitQuarantined partitions a membership snapshot by breaker state.
func splitQuarantined(children []*child) (active, quarantined []*child) {
	active = make([]*child, 0, len(children))
	for _, c := range children {
		if c.isQuarantined() {
			quarantined = append(quarantined, c)
		} else {
			active = append(active, c)
		}
	}
	return active, quarantined
}

// cycleScratch holds the per-controller slices a cycle's preparation reuses
// across cycles, so the steady state rebuilds no membership slices at all.
// It belongs to the single goroutine running that controller's cycles;
// concurrent readers (Stats) keep using the allocating helpers.
type cycleScratch struct {
	members     []*child
	active      []*child
	quarantined []*child
	collect     []*child
}

// split re-snapshots the membership into the scratch slices and partitions
// it by breaker state.
func (s *cycleScratch) split(m *memberSet) (active, quarantined []*child) {
	s.members = m.snapshotInto(s.members)
	s.active, s.quarantined = s.active[:0], s.quarantined[:0]
	for _, c := range s.members {
		if c.isQuarantined() {
			s.quarantined = append(s.quarantined, c)
		} else {
			s.active = append(s.active, c)
		}
	}
	return s.active, s.quarantined
}

// sweepProbes sends half-open heartbeats to the quarantined children whose
// probe is due, readmitting those that answer. It returns the children
// whose quarantine outlived EvictAfter; the caller owns their removal.
func (k *stageCore) sweepProbes(ctx context.Context, quarantined []*child) (evictable []*child) {
	bc := k.breaker
	now := time.Now()
	var due []*child
	for _, c := range quarantined {
		if bc.EvictAfter > 0 && c.quarantineAge(now) >= bc.EvictAfter {
			evictable = append(evictable, c)
			continue
		}
		if c.probeDue(now) {
			due = append(due, c)
		}
	}
	if len(due) == 0 {
		return evictable
	}
	// One shared heartbeat body serves every probe: the echo timestamp is
	// unused (readmission only checks for an ack), so sharing it is exact.
	hb := rpc.NewSharedFrame(&wire.Heartbeat{SentUnixMicros: now.UnixMicro()})
	defer hb.Release()
	rpc.Scatter(ctx, len(due), k.par, func(i int) {
		c := due[i]
		cctx, cancel := context.WithTimeout(ctx, k.callTimeout)
		resp, err := c.client().GoShared(cctx, hb).Wait(cctx)
		cancel()
		if err != nil && ctx.Err() != nil {
			return // caller shutdown mid-probe: no accounting
		}
		// The async path surfaces connection death at harvest; give the
		// reconnect wrapper the chance to start its background redial.
		c.client().NoteError(ctx, err)
		ok := err == nil
		if ok {
			_, ok = resp.(*wire.HeartbeatAck)
		}
		k.faults.Probe(ok)
		if !ok {
			c.failProbe(bc, time.Now())
			return
		}
		age := c.quarantineAge(time.Now())
		if c.recordSuccess() {
			k.faults.Readmit()
			k.logf("%s: readmitted child %d after %v in quarantine", k.who, c.info.ID, age.Round(time.Millisecond))
		}
	})
	return evictable
}

// memberSet tracks a controller's children with cheap snapshotting: the
// control cycle iterates a point-in-time slice while registrations proceed
// concurrently.
type memberSet struct {
	mu    sync.Mutex
	byID  map[uint64]*child
	order []*child
	epoch uint64
}

func newMemberSet() *memberSet {
	return &memberSet{byID: make(map[uint64]*child)}
}

// add inserts c; it reports false if the ID is already present.
func (m *memberSet) add(c *child) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, dup := m.byID[c.info.ID]; dup {
		return false
	}
	m.byID[c.info.ID] = c
	m.order = append(m.order, c)
	m.epoch++
	return true
}

// get returns the child by ID (nil if absent).
func (m *memberSet) get(id uint64) *child {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.byID[id]
}

// remove deletes the child by ID and returns it (nil if absent).
func (m *memberSet) remove(id uint64) *child {
	m.mu.Lock()
	defer m.mu.Unlock()
	c, ok := m.byID[id]
	if !ok {
		return nil
	}
	delete(m.byID, id)
	for i, o := range m.order {
		if o == c {
			m.order = append(m.order[:i], m.order[i+1:]...)
			break
		}
	}
	m.epoch++
	return c
}

// snapshot returns the current children. The slice is fresh; the children
// are shared.
func (m *memberSet) snapshot() []*child {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*child, len(m.order))
	copy(out, m.order)
	return out
}

// snapshotInto is snapshot reusing buf's backing array when capacity allows
// — the cycle-preparation path snapshots every cycle, and in the steady
// state the membership hasn't changed since the last one.
func (m *memberSet) snapshotInto(buf []*child) []*child {
	m.mu.Lock()
	defer m.mu.Unlock()
	if cap(buf) < len(m.order) {
		buf = make([]*child, len(m.order))
	}
	buf = buf[:len(m.order)]
	copy(buf, m.order)
	return buf
}

// size returns the current child count.
func (m *memberSet) size() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.order)
}

// currentEpoch returns the membership epoch (bumped on every change).
func (m *memberSet) currentEpoch() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.epoch
}

// closeAll severs every child connection and empties the set.
func (m *memberSet) closeAll() {
	m.mu.Lock()
	children := m.order
	m.order = nil
	m.byID = make(map[uint64]*child)
	m.mu.Unlock()
	for _, c := range children {
		c.client().Close()
	}
}

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
	"cmp"
	"context"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/dsrhaslab/sdscale/internal/cyclemem"
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
// controller roles.
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

// child is a controller's handle to one downstream component (a stage or an
// aggregator), with its long-lived RPC connection and its circuit-breaker
// state.
type child struct {
	info stage.Info
	role wire.Role
	// cli is read without a lock; it is replaced under mu, by a redial (see
	// install) or a re-registration (see replaceClient).
	cli atomic.Pointer[rpc.Client]
	// stages lists the stages behind an aggregator child; nil for stages.
	stages []stage.Info

	mu sync.Mutex
	// fails and quarantined are written under mu and read without it too:
	// isQuarantined, and recordSuccess on a healthy child, take no lock.
	fails atomic.Int64
	// retired is set when the child leaves the membership or its controller
	// closes: a connection dialed for it afterwards is closed, not installed.
	retired bool
	// Circuit-breaker state: a quarantined child is skipped by the
	// collect/enforce scatter and probed with half-open heartbeats until
	// one succeeds (readmission) or EvictAfter expires (eviction).
	quarantined   atomic.Bool
	quarantinedAt time.Time
	nextProbe     time.Time
	probeDelay    time.Duration
	// lastReport is the most recent successful collect response, kept so
	// degraded cycles can proceed on slightly stale data while the child
	// is quarantined; lastReportAt bounds its staleness.
	lastReport   wire.Message
	lastReportAt time.Time
	// lastRules caches the most recently enforced rule per stage for
	// delta enforcement (skip sends when nothing changed), sorted by
	// StageID: one rule for a stage child, its stages' for an aggregator.
	lastRules []wire.Rule
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
// A batch addresses each stage at most once.
//
// When every rule changed the batch itself comes back, and nothing when none
// did. Only a batch of more than one rule — an aggregator child's — can come
// out mixed; that subset is drawn from the slab in arena a when one is given
// (the caller must then be the cycle goroutine) and allocated otherwise.
func (c *child) filterChanged(rules []wire.Rule, a *cyclemem.Arena, subset *cyclemem.Slab[wire.Rule]) []wire.Rule {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(rules) == 1 && (len(c.lastRules) == 0 || len(c.lastRules) == 1 && c.lastRules[0].StageID == rules[0].StageID) {
		// A stage child's batch and cache: one rule each, so no search.
		if len(c.lastRules) == 1 && c.lastRules[0] == rules[0] {
			return nil
		}
		c.lastRules = append(c.lastRules[:0], rules[0])
		return rules
	}
	n := 0
	for _, r := range rules {
		if i, ok := c.findRule(r.StageID); !ok || c.lastRules[i] != r {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	changed := rules
	if n < len(rules) {
		changed = nil // appended to the heap without a subset slab
		if subset != nil {
			changed = subset.Take(a, n)[:0]
		}
		for _, r := range rules {
			if i, ok := c.findRule(r.StageID); !ok || c.lastRules[i] != r {
				changed = append(changed, r)
			}
		}
	}
	c.storeRules(changed)
	return changed
}

// stageOrder orders a rule against a StageID.
func stageOrder(r wire.Rule, id uint64) int { return cmp.Compare(r.StageID, id) }

// findRule locates stageID's entry in the StageID-sorted rule cache.
func (c *child) findRule(stageID uint64) (int, bool) {
	return slices.BinarySearchFunc(c.lastRules, stageID, stageOrder)
}

// storeRules writes rules into the cache, keeping it StageID-sorted; a later
// rule for a stage overwrites an earlier one.
func (c *child) storeRules(rules []wire.Rule) {
	for _, r := range rules {
		if i, ok := c.findRule(r.StageID); ok {
			c.lastRules[i] = r
		} else {
			c.lastRules = slices.Insert(c.lastRules, i, r)
		}
	}
}

// forgetRules withdraws rules from the delta-enforcement cache after the
// call that carried them failed, and marks the child dirty so an incremental
// cycle recomputes, and so re-sends them, instead of short-circuiting.
func (c *child) forgetRules(rules []wire.Rule) {
	c.mu.Lock()
	defer c.mu.Unlock()
	// Tag, then compact: no rule carries the zero Action.
	for _, r := range rules {
		if i, ok := c.findRule(r.StageID); ok {
			c.lastRules[i].Action = 0
		}
	}
	c.lastRules = slices.DeleteFunc(c.lastRules, func(r wire.Rule) bool { return r.Action == 0 })
	c.dirty = true
}

// recordFailure counts one failed call and reports whether it tripped the
// breaker (the quarantine transition happens exactly once).
func (c *child) recordFailure(bc breakerConfig, now time.Time) (tripped bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.fails.Add(1) < int64(bc.MaxFailures) || c.quarantined.Load() {
		return false
	}
	c.quarantined.Store(true)
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
	if c.fails.Load() == 0 && !c.quarantined.Load() {
		return false // healthy: nothing to reset
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.fails.Store(0)
	if !c.quarantined.Load() {
		return false
	}
	c.quarantined.Store(false)
	c.dirty = true
	c.forceCollect = true
	return true
}

// isQuarantined reports the breaker state.
func (c *child) isQuarantined() bool { return c.quarantined.Load() }

// quarantineAge returns how long the child has been quarantined (zero if it
// is not).
func (c *child) quarantineAge(now time.Time) time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.quarantined.Load() {
		return 0
	}
	return now.Sub(c.quarantinedAt)
}

// probeDue reports whether a quarantined child should be probed now.
func (c *child) probeDue(now time.Time) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.quarantined.Load() && !now.Before(c.nextProbe)
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

// visit is an incremental cycle's one look at the child, under one lock. It
// claims the dirty flag and reports whether the collect must include the
// child: its connection is dead (it can push nothing), a forced collect is
// pending (claimed too), no report was ever cached, or the cache is older
// than floor (the heartbeat-floor check that makes a silent child
// distinguishable from an unchanged one — a live pushing child refreshes its
// cache at the stage-side floor, which is tighter). With copyRows set, a
// child that is not collected has its cached rows appended to dst, as
// appendCachedReports would. A push arriving after the visit re-dirties the
// child for the next cycle.
func (c *child) visit(dst []wire.StageReport, now time.Time, floor, staleAfter time.Duration, dead, copyRows bool) (_ []wire.StageReport, wasDirty, collect bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	wasDirty, c.dirty = c.dirty, false
	collect = dead || c.forceCollect || c.lastReport == nil || now.Sub(c.lastReportAt) >= floor
	c.forceCollect = false
	if copyRows && !collect {
		dst, _, _ = c.cachedRows(dst, now, staleAfter)
	}
	return dst, wasDirty, collect
}

// staleReport returns the cached report and its age. ok is true only if a
// report exists and is strictly younger than staleAfter: a report aged
// exactly StaleAfter is already too old to feed a degraded cycle. When a
// report exists but has aged out, the age is still returned (with ok
// false) so the drop can be accounted.
func (c *child) staleReport(now time.Time, staleAfter time.Duration) (m wire.Message, age time.Duration, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.freshReport(now, staleAfter)
}

// freshReport is staleReport with the child's lock held.
func (c *child) freshReport(now time.Time, staleAfter time.Duration) (wire.Message, time.Duration, bool) {
	if c.lastReport == nil {
		return nil, 0, false
	}
	age := now.Sub(c.lastReportAt)
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
	return c.cachedRows(dst, now, staleAfter)
}

// cachedRows is appendCachedReports with the child's lock already held.
func (c *child) cachedRows(dst []wire.StageReport, now time.Time, staleAfter time.Duration) ([]wire.StageReport, time.Duration, bool) {
	m, age, ok := c.freshReport(now, staleAfter)
	if r, rows := m.(*wire.CollectReply); ok && rows {
		return append(dst, r.Reports...), age, true
	}
	return dst, age, false
}

// seedRules primes the delta-enforcement cache with rules a predecessor
// controller already sent, so a promoted standby's first cycle diffs
// against what the stages actually hold instead of re-sending everything.
func (c *child) seedRules(rules []wire.Rule) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.storeRules(rules)
}

// snapshotRules copies the delta-enforcement cache, in StageID order, for
// state replication.
func (c *child) snapshotRules() []wire.Rule {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.lastRules) == 0 {
		return nil
	}
	return slices.Clone(c.lastRules)
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
func (c *child) replaceClient(cli *rpc.Client) {
	c.mu.Lock()
	old := cli // a retired child keeps none
	if !c.retired {
		old = c.cli.Swap(cli)
		c.lastRules = c.lastRules[:0]
		// The restarted child's push sequence starts over and its cached
		// report predates the restart: accept any incoming sequence, refresh
		// with an explicit collect, and make the next incremental cycle
		// recompute.
		c.pushSeq = 0
		c.dirty = true
		c.forceCollect = true
	}
	c.mu.Unlock()
	old.Close()
}

// install puts a redialed connection in place of the dead one it replaces
// and closes the dead one. It closes fresh instead when the child has moved
// on: a re-registration replaced dead meanwhile, or the child was retired.
func (c *child) install(dead, fresh *rpc.Client) {
	c.mu.Lock()
	if c.retired || !c.cli.CompareAndSwap(dead, fresh) {
		dead = fresh
	}
	c.mu.Unlock()
	dead.Close()
}

// retire closes the child's connection for good: the child has left the
// membership, or its controller is closing.
func (c *child) retire() {
	c.mu.Lock()
	c.retired = true
	c.mu.Unlock()
	c.client().Close()
}

// client returns the child's current connection.
func (c *child) client() *rpc.Client { return c.cli.Load() }

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
	if ctx.Err() != nil {
		return // caller-side cancellation, not a child failure
	}
	if c.recordFailure(k.breaker, time.Now()) {
		k.faults.Quarantine()
		k.logf("%s: quarantined child %d after %d consecutive failures", k.who, c.info.ID, k.breaker.MaxFailures)
	}
}

// cycleScratch holds the per-controller slices a cycle's preparation reuses
// across cycles, so the steady state rebuilds no membership slices at all.
// It belongs to the single goroutine running that controller's cycles.
type cycleScratch struct {
	active      []*child
	quarantined []*child
	// dead lists, in member order, the active children whose connection has
	// died: a subsequence of active.
	dead []*child
	// collect lists an incremental gather's collect targets, and slots where
	// each one's row goes in the report set.
	collect []*child
	slots   []int
}

// split partitions the membership by breaker state into the scratch slices,
// and lists the active children whose connection has died, in one pass under
// the member lock.
func (s *cycleScratch) split(m *memberSet) (active, quarantined []*child) {
	s.active, s.quarantined, s.dead = s.active[:0], s.quarantined[:0], s.dead[:0]
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, c := range m.order {
		if c.isQuarantined() {
			s.quarantined = append(s.quarantined, c)
			continue
		}
		if c.client().Err() != nil {
			s.dead = append(s.dead, c)
		}
		s.active = append(s.active, c)
	}
	return s.active, s.quarantined
}

// sweep is the pre-cycle pass that tries lost children again, all in one
// scatter: every active child whose connection has died is redialed, and
// every quarantined child whose probe is due is sent a half-open heartbeat,
// redialed first if its connection has died. The breaker's probe schedule is
// the only retry clock. An answered probe readmits the child and a failed
// one backs the schedule off. A failed redial of an active child is judged
// by the cycle: the child's calls fail at once with rpc.ErrDisconnected and
// count against its breaker. dead lists the active children to redial. sweep
// returns the children whose quarantine outlived EvictAfter; the caller owns
// their removal.
func (k *stageCore) sweep(ctx context.Context, quarantined, dead []*child) (evictable []*child) {
	bc := k.breaker
	now := time.Now()
	var due []*child
	for _, c := range quarantined {
		if bc.EvictAfter > 0 && c.quarantineAge(now) >= bc.EvictAfter {
			evictable = append(evictable, c)
		} else if c.probeDue(now) {
			due = append(due, c)
		}
	}
	probes := len(due)
	due = append(due, dead...)
	if len(due) == 0 {
		return evictable
	}
	// One shared heartbeat body serves every probe: the echo timestamp is
	// unused (readmission only checks for an ack), so sharing it is exact.
	hb := rpc.NewSharedFrame(&wire.Heartbeat{SentUnixMicros: now.UnixMicro()})
	defer hb.Release()
	rpc.Scatter(ctx, len(due), k.par, func(i int) {
		c := due[i]
		k.redial(ctx, c)
		if i >= probes {
			return
		}
		cctx, cancel := context.WithTimeout(ctx, k.callTimeout)
		resp, err := c.client().GoShared(cctx, hb).Wait(cctx)
		cancel()
		if err != nil && ctx.Err() != nil {
			return // caller shutdown mid-probe: no accounting
		}
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

// redial replaces c's connection, if it has died, with one dialed to the
// same address within CallTimeout. The child is the same process behind a
// new connection, so its breaker state, rule cache and push sequence stay as
// they are: a re-registration, which means a restarted child, is what resets
// them (replaceClient). A failed dial leaves the dead connection in place.
func (k *stageCore) redial(ctx context.Context, c *child) {
	dead := c.client()
	if dead.Err() == nil {
		return
	}
	dctx, cancel := context.WithTimeout(ctx, k.callTimeout)
	fresh, err := k.dial(dctx, dead.RemoteAddr().String(), c.info.ID)
	cancel()
	if err == nil {
		c.install(dead, fresh)
	}
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

// snapshot returns a copy of the current children; the children are shared.
func (m *memberSet) snapshot() []*child {
	m.mu.Lock()
	defer m.mu.Unlock()
	return slices.Clone(m.order)
}

// each calls fn for every child under the member lock, copying nothing per
// child; fn must not call back into the set.
func (m *memberSet) each(fn func(c *child)) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, c := range m.order {
		fn(c)
	}
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
		c.retire()
	}
}

package shard

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/dsrhaslab/sdscale/internal/controller"
	"github.com/dsrhaslab/sdscale/internal/telemetry"
	"github.com/dsrhaslab/sdscale/internal/wire"
)

// Group is one shard's controller group: the configured leader at index
// zero of members, followed by its quorum standbys. The group's effective
// leader moves when the shard fails over; Leader resolves it dynamically so
// the router keeps working through a promotion without being told.
type Group struct {
	members []*controller.Global
	// standbyAddrs is the registration-address list children walk when
	// re-homing, published in the shard table.
	standbyAddrs []string
}

// NewGroup builds a shard group from its configured leader and standbys.
// standbyAddrs may be nil when the shard runs without a quorum.
func NewGroup(leader *controller.Global, standbys []*controller.Global, standbyAddrs []string) *Group {
	members := append([]*controller.Global{leader}, standbys...)
	return &Group{members: members, standbyAddrs: standbyAddrs}
}

// Leader returns the shard's effective leader: the promoted standby with
// the highest epoch if the configured leader lost leadership, otherwise the
// configured leader itself. It never returns nil for a non-empty group —
// during the window where the leader is dead and no standby has promoted
// yet, the (doomed) configured leader is returned and callers see its
// calls fail, exactly as the shard's children do.
func (s *Group) Leader() *controller.Global {
	best := s.members[0]
	ok := !best.Deposed()
	for _, g := range s.members[1:] {
		if g.Promoted() && !g.Deposed() && (!ok || g.Epoch() > best.Epoch()) {
			best = g
			ok = true
		}
	}
	return best
}

// Members returns the group's controllers, configured leader first.
func (s *Group) Members() []*controller.Global { return s.members }

// Config parameterizes a Router.
type Config struct {
	// Placement overrides the consistent-hash ring: it must map every
	// child ID to a shard in [0, shards). Nil selects a Ring over the
	// group count.
	Placement func(childID uint64) int
	// VirtualNodes sets the default ring's granularity; see NewRing.
	VirtualNodes int
}

// routerState is the router's routing view — the group set and the
// placement function over it. It is immutable once published: SetGroups
// swaps in a whole new state, so cycle traffic loads one consistent
// (groups, placement) pair with a single atomic read and never sees a
// half-resized deployment.
type routerState struct {
	shards []*Group
	place  func(childID uint64) int
}

// Router is the thin routing tier over a sharded deployment's groups. It
// holds no child state of its own: placement is a pure function, ownership
// questions are answered by the shards, and handoff drives the controllers'
// existing re-homing + epoch-fencing machinery.
type Router struct {
	state atomic.Pointer[routerState]

	// moveMu serializes handoffs and group-set swaps: concurrent moves of
	// the same child from Rebalance and an operator would race
	// adopt/remove interleavings, and a resize must not interleave with a
	// half-done move. Cycle traffic never takes this lock.
	moveMu     sync.Mutex
	moves      atomic.Uint64
	rebalances atomic.Uint64
}

// NewRouter builds the routing tier over the given shard groups and
// installs the shard-table provider on every member, so any controller in
// the deployment answers ShardQuery with current routing metadata.
func NewRouter(shards []*Group, cfg Config) *Router {
	r := &Router{}
	r.install(shards, cfg)
	return r
}

// install publishes a new routing state and re-points every member's shard
// table at this router with its (possibly new) shard index.
func (r *Router) install(shards []*Group, cfg Config) {
	st := &routerState{shards: shards, place: cfg.Placement}
	if st.place == nil {
		ring := NewRing(len(shards), cfg.VirtualNodes)
		st.place = ring.Place
	}
	table := func(childID uint64) *wire.ShardMap { return r.describe(childID) }
	for i, s := range shards {
		for _, g := range s.members {
			g.SetShardTable(table, i)
		}
	}
	r.state.Store(st)
}

// SetGroups replaces the shard set live (an elastic resize). The new state
// — group list and placement — becomes visible to routing and cycles
// atomically; children still sitting on shards that moved in the ring are
// the caller's to drain with Rebalance. Groups present in the old set and
// not the new one are likewise the caller's to close, after Rebalance has
// emptied them.
func (r *Router) SetGroups(shards []*Group, cfg Config) {
	r.moveMu.Lock()
	defer r.moveMu.Unlock()
	r.install(shards, cfg)
}

// NumShards returns the shard count.
func (r *Router) NumShards() int { return len(r.state.Load().shards) }

// Group returns shard i's controller group.
func (r *Router) Group(i int) *Group { return r.state.Load().shards[i] }

// Leaders returns every shard's effective leader in shard order, read from
// one view of the shard table, so a resize cannot move the end of the walk.
func (r *Router) Leaders() []*controller.Global {
	shards := r.state.Load().shards
	out := make([]*controller.Global, len(shards))
	for i, s := range shards {
		out[i] = s.Leader()
	}
	return out
}

// Place returns the shard that placement assigns childID to — where the
// child *should* live. See Route for where it actually lives.
func (r *Router) Place(childID uint64) int { return r.state.Load().place(childID) }

// Route returns the shard currently owning childID and its effective
// leader. Placement is checked first; during a rebalance (or after manual
// moves) a child may be elsewhere, so the other shards are consulted
// before giving up. An unknown child routes to its placement shard — the
// shard it would register with.
func (r *Router) Route(childID uint64) (int, *controller.Global) {
	return r.state.Load().route(childID)
}

func (st *routerState) route(childID uint64) (int, *controller.Global) {
	want := st.place(childID)
	if g := st.shards[want].Leader(); g != nil {
		if _, _, ok := g.ChildSnapshot(childID); ok {
			return want, g
		}
	}
	for i, s := range st.shards {
		if i == want {
			continue
		}
		if g := s.Leader(); g != nil {
			if _, _, ok := g.ChildSnapshot(childID); ok {
				return i, g
			}
		}
	}
	return want, st.shards[want].Leader()
}

// RunCycle runs one control cycle on every shard's effective leader
// concurrently and merges the result: the deployment's phase latency is
// the slowest shard's (shards overlap, so maxima — not sums — are the
// wall-clock truth). Shard 0 runs on the caller's goroutine, so a one-shard
// deployment's cycle is its leader's, with no hand-off and no allocation.
// Shards that fail contribute a wrapped error; the survivors' cycles still
// run and merge, because one shard's outage must not stall the rest of the
// fleet — that is the point of sharding.
func (r *Router) RunCycle(ctx context.Context) (telemetry.Breakdown, error) {
	shards := r.state.Load().shards
	if len(shards) == 1 {
		b, err := shards[0].Leader().RunCycle(ctx)
		if err != nil {
			err = fmt.Errorf("shard 0: %w", err)
		}
		return b, err
	}
	bs := make([]telemetry.Breakdown, len(shards))
	errs := make([]error, len(shards))
	var wg sync.WaitGroup
	for i := 1; i < len(shards); i++ {
		wg.Add(1)
		go func(i int, s *Group) {
			defer wg.Done()
			bs[i], errs[i] = s.Leader().RunCycle(ctx)
		}(i, shards[i])
	}
	bs[0], errs[0] = shards[0].Leader().RunCycle(ctx)
	wg.Wait()
	var err error
	for i, e := range errs {
		if e != nil && err == nil {
			err = fmt.Errorf("shard %d: %w", i, e)
		}
	}
	return telemetry.MergeMax(bs...), err
}

// EnforceUniform applies one per-job rule across every shard concurrently,
// each leader broadcasting it to its children over the marshal-once shared
// frame path. It returns the total number of stages that applied the rule.
func (r *Router) EnforceUniform(ctx context.Context, jobID uint64, action wire.RuleAction, limit wire.Rates) (int, error) {
	shards := r.state.Load().shards
	applied := make([]int, len(shards))
	errs := make([]error, len(shards))
	var wg sync.WaitGroup
	for i, s := range shards {
		wg.Add(1)
		go func(i int, s *Group) {
			defer wg.Done()
			applied[i], errs[i] = s.Leader().EnforceUniform(ctx, jobID, action, limit)
		}(i, s)
	}
	wg.Wait()
	var total int
	var err error
	for i := range shards {
		total += applied[i]
		if errs[i] != nil && err == nil {
			err = fmt.Errorf("shard %d: %w", i, errs[i])
		}
	}
	return total, err
}

// Move hands childID off to shard dst. The source forgets the child first,
// closing its connection, so a source cycle that still holds the child
// fails that call locally instead of reaching a child whose fence has moved
// on. The destination leader then raises its epoch above the source's
// (persisted first, like a promotion) and adopts the child with the rules the
// source last enforced. The child's next contact with the destination adopts
// the raised epoch as its fencing floor, so anything the source still had on
// the wire — a straggling Enforce, a queued Collect — is rejected as stale,
// and the rejection reaches nobody. A push the child emits mid-move lands on
// whichever side knows it at that moment, or on neither.
func (r *Router) Move(ctx context.Context, childID uint64, dst int) error {
	r.moveMu.Lock()
	defer r.moveMu.Unlock()
	return r.moveLocked(ctx, r.state.Load(), childID, dst)
}

// moveLocked is Move's body; the caller holds moveMu and pins the state
// the move routes against.
func (r *Router) moveLocked(ctx context.Context, st *routerState, childID uint64, dst int) error {
	if dst < 0 || dst >= len(st.shards) {
		return fmt.Errorf("shard: move child %d: no shard %d", childID, dst)
	}
	srcIdx, src := st.route(childID)
	if srcIdx == dst {
		return nil
	}
	ok, err := r.handoff(ctx, src, st.shards[dst].Leader(), childID)
	if !ok {
		return fmt.Errorf("shard: move child %d: shard %d does not own it", childID, srcIdx)
	}
	if err != nil {
		return fmt.Errorf("shard: move child %d to shard %d: %w", childID, dst, err)
	}
	return nil
}

// handoff moves childID from src to dst as Move describes, and reports
// whether src owned it. An adoption that fails gives the child back to src,
// with src's epoch raised to at least dst's so that its fence passes src
// whatever dst sent it; the give-back runs even if ctx is cancelled. Only a
// child that neither side can dial is left unowned, and it comes back by
// registering again.
func (r *Router) handoff(ctx context.Context, src, dst *controller.Global, childID uint64) (bool, error) {
	info, rules, ok := src.ChildSnapshot(childID)
	if !ok {
		return false, nil
	}
	src.RemoveChild(childID)
	dst.RaiseEpoch(src.Epoch() + 1)
	err := dst.AdoptStage(ctx, info, rules)
	if _, _, adopted := dst.ChildSnapshot(childID); adopted {
		// Adopted, here or by a registration that reached dst first.
		r.moves.Add(1)
		return true, nil
	}
	src.RaiseEpoch(dst.Epoch())
	if berr := src.AdoptStage(context.WithoutCancel(ctx), info, rules); berr != nil {
		return true, errors.Join(err, fmt.Errorf("give back: %w", berr))
	}
	return true, err
}

// Rebalance walks every shard's membership and moves each child whose
// placement disagrees with its current owner. It returns the number of
// children moved. Rebalance runs concurrently with control cycles — a
// shard's cycle simply sees the membership before or after each move — but
// concurrent Rebalance calls (and resizes) serialize on the router's move
// lock.
func (r *Router) Rebalance(ctx context.Context) (int, error) {
	r.moveMu.Lock()
	defer r.moveMu.Unlock()
	st := r.state.Load()
	moved := 0
	for i, s := range st.shards {
		g := s.Leader()
		if g == nil {
			continue
		}
		for _, id := range g.ChildIDs() {
			want := st.place(id)
			if want == i {
				continue
			}
			if err := r.moveLocked(ctx, st, id, want); err != nil {
				return moved, err
			}
			moved++
			if ctx.Err() != nil {
				return moved, ctx.Err()
			}
		}
	}
	r.rebalances.Add(1)
	return moved, nil
}

// Drain moves every child off shard src to wherever placement puts it —
// the emptying half of a shrink, run after SetGroups installed a ring that
// no longer maps anything to src. It returns the number of children moved.
func (r *Router) Drain(ctx context.Context, src *Group) (int, error) {
	r.moveMu.Lock()
	defer r.moveMu.Unlock()
	st := r.state.Load()
	g := src.Leader()
	if g == nil {
		return 0, nil
	}
	moved := 0
	for _, id := range g.ChildIDs() {
		dst := st.place(id)
		ok, err := r.handoff(ctx, g, st.shards[dst].Leader(), id)
		if !ok {
			continue // re-homed away concurrently
		}
		if err != nil {
			return moved, fmt.Errorf("shard: drain child %d to shard %d: %w", id, dst, err)
		}
		moved++
		if ctx.Err() != nil {
			return moved, ctx.Err()
		}
	}
	return moved, nil
}

// Stats is the router's merged view of the deployment.
type Stats struct {
	// Shards holds each shard leader's full stats snapshot, indexed by
	// shard. Fault and pipeline digests live here — they do not merge
	// meaningfully across shards.
	Shards []controller.ControllerStats
	// Children, Stages, Quarantined, CallErrors, Evictions and
	// FencedCalls are fleet-wide sums over the shards.
	Children    int
	Stages      int
	Quarantined int
	CallErrors  uint64
	Evictions   uint64
	FencedCalls uint64
	// MaxEpoch is the highest leadership epoch any shard leads with.
	MaxEpoch uint64
	// Moves and Rebalances count completed child handoffs and rebalance
	// sweeps since the router was built.
	Moves      uint64
	Rebalances uint64
}

// Stats snapshots every shard leader and merges the fleet-wide counters.
func (r *Router) Stats() Stats {
	shards := r.state.Load().shards
	st := Stats{Shards: make([]controller.ControllerStats, len(shards))}
	for i, s := range shards {
		cs := s.Leader().Stats()
		st.Shards[i] = cs
		st.Children += cs.Children
		st.Stages += cs.Stages
		st.Quarantined += cs.Quarantined
		st.CallErrors += cs.CallErrors
		st.Evictions += cs.Evictions
		st.FencedCalls += cs.FencedCalls
		if cs.Epoch > st.MaxEpoch {
			st.MaxEpoch = cs.Epoch
		}
	}
	st.Moves = r.moves.Load()
	st.Rebalances = r.rebalances.Load()
	return st
}

// describe builds a fresh ShardMap (handlers overlay their own epoch on the
// reply, so the map must not be shared). childID nonzero also resolves the
// owning shard.
func (r *Router) describe(childID uint64) *wire.ShardMap {
	st := r.state.Load()
	mp := &wire.ShardMap{Entries: make([]wire.ShardEntry, len(st.shards))}
	for i, s := range st.shards {
		g := s.Leader()
		mp.Entries[i] = wire.ShardEntry{
			Index:    uint64(i),
			Epoch:    g.Epoch(),
			Children: uint64(g.NumChildren()),
			Addr:     g.Addr(),
			Standbys: s.standbyAddrs,
		}
	}
	if childID != 0 {
		owner, _ := st.route(childID)
		mp.Owner = uint64(owner)
		mp.OwnerValid = true
	}
	return mp
}

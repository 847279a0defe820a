package controller

import (
	"context"
	"fmt"
	"slices"
	"sync/atomic"

	"github.com/dsrhaslab/sdscale/internal/rpc"
	"github.com/dsrhaslab/sdscale/internal/stage"
	"github.com/dsrhaslab/sdscale/internal/wire"
)

// This file holds the primitives the sharding layer (internal/shard)
// composes into child handoff and cross-shard fan-out. A shard move is
// deliberately *not* a new protocol: it is the existing re-homing + epoch
// fencing machinery driven from the controller side — the destination
// leader raises its epoch above the source's, adopts the child (seeding the
// rules the source last enforced), and the source forgets it. The child's
// fence then admits the destination and rejects the source, exactly as it
// would after a failover.

// RaiseEpoch raises the leadership epoch to at least floor and returns the
// resulting epoch. Like a promotion, the raised epoch is persisted through
// the store before it is used, so a crash cannot forget an epoch the fleet
// may already have adopted. A floor at or below the current epoch is a
// no-op: epochs only move forward.
//
// The sharding layer calls this on a move's destination leader with
// (source epoch + 1): the moved child adopts the higher epoch from the
// destination's first call and from then on fences the source's traffic as
// stale, closing the window where a lagging source could overwrite the
// destination's rules.
func (g *Global) RaiseEpoch(floor uint64) uint64 {
	g.mu.Lock()
	if g.epoch >= floor {
		cur := g.epoch
		g.mu.Unlock()
		return cur
	}
	g.mu.Unlock()
	if g.cfg.Store != nil {
		if err := g.cfg.Store.AppendEpoch(floor); err != nil {
			// Availability-first, like promotion: a dead log disk must not
			// stall a handoff. In-memory fencing still holds; only
			// crash-restart fencing is degraded, and that is logged.
			g.storeFault("persist raised epoch", err)
		}
	}
	g.mu.Lock()
	if floor > g.epoch {
		g.epoch = floor
	}
	cur := g.epoch
	g.mu.Unlock()
	return cur
}

// ChildSnapshot returns a stage child's registration info and a copy of the
// rules this controller last enforced on it — everything a handoff
// destination needs to adopt the child without a blank-slate first cycle.
// It reports false for unknown IDs and for aggregator children (shard
// handoff moves stages; aggregator tiers belong to one shard).
func (g *Global) ChildSnapshot(id uint64) (stage.Info, []wire.Rule, bool) {
	c := g.members.get(id)
	if c == nil || c.role != wire.RoleStage {
		return stage.Info{}, nil, false
	}
	return c.info, c.snapshotRules(), true
}

// ChildIDs returns the IDs of every directly managed child, quarantined
// ones included — the enumeration a rebalance walks to find misplaced
// children. The order is unspecified.
func (g *Global) ChildIDs() []uint64 {
	children := g.members.snapshot()
	ids := make([]uint64, len(children))
	for i, c := range children {
		ids[i] = c.info.ID
	}
	return ids
}

// AdoptStage is AddStage plus rule-cache seeding: the handoff destination
// dials the moved child and primes its delta-enforcement cache with the
// rules the source shard last sent, so the move does not force a spurious
// re-enforce (or, worse, a window where the child holds rules the new
// owner does not know about). The seeded rules are logged so the adopter's
// store is self-contained, mirroring failover adoption.
func (g *Global) AdoptStage(ctx context.Context, info stage.Info, rules []wire.Rule) error {
	if err := g.AddStage(ctx, info); err != nil {
		return err
	}
	if c := g.members.get(info.ID); c != nil && len(rules) > 0 {
		c.seedRules(rules)
		g.mu.Lock()
		cycle := g.cycle
		g.mu.Unlock()
		g.logRules(cycle, info.ID, rules)
	}
	return nil
}

// EnforceUniform broadcasts one per-job wildcard rule to every active stage
// child outside the cycle schedule, using the marshal-once shared-frame
// path: the Enforce body is encoded once and every child receives the same
// bytes. It returns the number of the job's stages that acknowledged the
// rule; stages serving other jobs ignore the wildcard.
//
// The sharding layer fans this out across all shard leaders to apply a
// deployment-wide QoS decision — a job cap, a pause — in one round without
// waiting for N independent control cycles to converge.
func (g *Global) EnforceUniform(ctx context.Context, jobID uint64, action wire.RuleAction, limit wire.Rates) (int, error) {
	cycle, epoch, mode, err := g.leading()
	if err != nil {
		return 0, err
	}
	if mode == wire.RoleAggregator {
		return 0, fmt.Errorf("controller: uniform enforce requires a flat controller (children are aggregators)")
	}

	active := slices.DeleteFunc(g.members.snapshot(), (*child).isQuarantined)
	// This runs beside the cycle, so it fans out through offCycle and, under
	// its rule, counts an ack by its type alone: a stage applies the rule
	// exactly when it serves the job, which the registration already says.
	var applied atomic.Uint32
	rule := wire.Rule{StageID: wire.WildcardStage, JobID: jobID, Action: action, Limit: limit}
	f := rpc.NewSharedFrame(&wire.Enforce{Cycle: cycle, Epoch: epoch, Rules: []wire.Rule{rule}})
	g.fanOutBroadcast(ctx, g.offCycle(&g.pipe.EnforceInFlight), active, f, func(i int, resp wire.Message, _ error) {
		if _, ok := resp.(*wire.EnforceAck); ok && active[i].info.JobID == jobID {
			applied.Add(1)
		}
	})
	return int(applied.Load()), ctx.Err()
}

// SetShardTable installs the provider that answers ShardQuery requests on
// the registration endpoint, and records which shard this controller serves.
// The provider receives the queried child ID (zero for a whole-table query)
// and returns the deployment's shard table; this leader's own leadership
// epoch is overlaid on the reply. A nil provider (the default) makes
// ShardQuery answer with a BadMessage error — the controller is not part of
// a sharded deployment.
//
// Installing the table also arms the registration endpoint's ownership
// check: a stage Register for a child the table assigns to another shard is
// rejected instead of adopted, so a lagging registration retry racing a
// completed handoff cannot resurrect the child on its old shard (where the
// child's fence — now at the destination's higher epoch — would reject
// every call and read as a deposition).
func (g *Global) SetShardTable(f func(childID uint64) *wire.ShardMap, self int) {
	g.mu.Lock()
	g.shardTable = f
	g.shardSelf = self
	g.mu.Unlock()
}

// shardOwner consults the deployment's shard table for childID's owning
// shard. ok reports whether this controller's shard is (or may be) the
// owner; without a table — the controller is not sharded — every child is
// local.
func (g *Global) shardOwner(childID uint64) (owner int, ok bool) {
	g.mu.Lock()
	f, self := g.shardTable, g.shardSelf
	g.mu.Unlock()
	if f == nil {
		return 0, true
	}
	mp := f(childID)
	if !mp.OwnerValid {
		return self, true
	}
	return int(mp.Owner), int(mp.Owner) == self
}

// handleShardQuery serves routing metadata to anyone holding a connection
// to the registration endpoint: operators (sdsctl), tests, and children
// that want to find their owning shard without walking parent lists.
func (g *Global) handleShardQuery(m *wire.ShardQuery) (wire.Message, error) {
	g.mu.Lock()
	f := g.shardTable
	epoch := g.epoch
	g.mu.Unlock()
	if f == nil {
		return nil, &wire.ErrorReply{Code: wire.CodeBadMessage, Text: "not part of a sharded deployment", Epoch: epoch}
	}
	mp := f(m.ChildID)
	mp.Epoch = epoch
	return mp, nil
}

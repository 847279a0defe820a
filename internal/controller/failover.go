package controller

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"github.com/dsrhaslab/sdscale/internal/rpc"
	"github.com/dsrhaslab/sdscale/internal/stage"
	"github.com/dsrhaslab/sdscale/internal/wire"
)

// Warm-standby failover defaults. The lease is five sync intervals: a
// standby tolerates a few lost or delayed syncs before concluding the
// primary is dead, keeping spurious promotions rare without stretching the
// control gap much past the paper's one-second cycle period.
const (
	// DefaultSyncInterval is how often a primary replicates state to its
	// standby (and implicitly renews its leadership lease).
	DefaultSyncInterval = 50 * time.Millisecond
	// DefaultLeaseTimeout is how long a standby waits without a StateSync
	// before promoting itself.
	DefaultLeaseTimeout = 250 * time.Millisecond
)

// ErrDeposed is returned by RunCycle once a stale-epoch rejection has proven
// that a newer leader holds the control plane: the deposed primary must stop
// running cycles (its children fence everything it sends anyway).
var ErrDeposed = errors.New("controller: deposed by a newer leadership epoch")

// ErrStandby is returned by RunCycle on a standby that has not promoted
// itself: a passive mirror must not drive control cycles.
var ErrStandby = errors.New("controller: standby has not been promoted")

// Epoch returns the controller's current leadership epoch.
func (g *Global) Epoch() uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.epoch
}

// Deposed reports whether the controller has stepped down after observing a
// newer leadership epoch.
func (g *Global) Deposed() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.deposed
}

// Promoted reports whether a standby controller has taken over as primary.
func (g *Global) Promoted() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.promoted
}

// stepDown marks the controller deposed (once) after evidence of a newer
// leader: either a child fenced one of its calls, or its standby answered a
// sync with a higher epoch.
func (g *Global) stepDown(why string) {
	g.mu.Lock()
	if g.deposed {
		g.mu.Unlock()
		return
	}
	g.deposed = true
	g.mu.Unlock()
	g.faults.StepDown()
	g.logf("controller: stepping down: %s", why)
}

// handleStateSync is the standby side of state replication: mirror the
// primary's state, renew the leadership lease, and echo the epoch. A sync
// from a lower epoch — a deposed primary that has not yet noticed — is
// rejected with CodeStaleEpoch naming the current epoch, which forces the
// sender to step down.
func (g *Global) handleStateSync(m *wire.StateSync) (wire.Message, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if m.Epoch < g.epoch || (g.promoted && m.Epoch == g.epoch) {
		g.fencedSyncs++
		return nil, &wire.ErrorReply{
			Code:  wire.CodeStaleEpoch,
			Text:  fmt.Sprintf("standby: sender epoch %d deposed, current epoch is %d", m.Epoch, g.epoch),
			Epoch: g.epoch,
		}
	}
	if g.promoted {
		// A leader with a strictly newer epoch exists: fall back to being
		// its passive mirror.
		g.promoted = false
		g.logf("controller: yielding promotion to newer epoch %d", m.Epoch)
	}
	g.epoch = m.Epoch
	g.mirror = m
	lease := time.Duration(m.LeaseMicros) * time.Microsecond
	if lease <= 0 {
		// The primary granted no lease duration — a misconfiguration that
		// would silently skew the failover window if absorbed quietly.
		// Fall back to the local timeout, but count it and say so once.
		lease = g.cfg.LeaseTimeout
		g.faults.DefaultedLease()
		if !g.defaultedLeaseLogged {
			g.defaultedLeaseLogged = true
			g.logf("controller: primary %d sent StateSync without a lease duration; defaulting to local %v (counted in DefaultedLeases)",
				m.PrimaryID, g.cfg.LeaseTimeout)
		}
	}
	now := time.Now()
	g.leaseUntil = now.Add(lease)
	g.lastSyncAt = now
	return &wire.StateSyncAck{ID: m.PrimaryID, Epoch: g.epoch}, nil
}

// FencedSyncs returns how many StateSyncs from deposed primaries this
// controller rejected.
func (g *Global) FencedSyncs() uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.fencedSyncs
}

// runStandby blocks until the leadership lease expires — then promotes,
// directly with no quorum configured or after winning an election with one —
// or until the standby is promoted by other means, polling at a fraction of
// the lease timeout so expiry is detected promptly.
func (g *Global) runStandby(ctx context.Context) error {
	poll := g.cfg.LeaseTimeout / 8
	if poll < time.Millisecond {
		poll = time.Millisecond
	}
	// Jittered retry delays break ties between standbys whose leases expire
	// together: the first to retry wins the next round, the other sees the
	// new primary's StateSync before candidating again.
	jitter := rand.New(rand.NewSource(time.Now().UnixNano() ^ int64(g.cfg.ID)<<20))
	for {
		g.mu.Lock()
		promoted := g.promoted
		leaseUntil := g.leaseUntil
		g.mu.Unlock()
		if promoted {
			return nil
		}
		if time.Now().After(leaseUntil) {
			if len(g.cfg.StandbyAddrs) == 0 {
				// PR 2 behaviour: a lone standby promotes on lease expiry.
				return g.Promote(ctx)
			}
			won, err := g.runElection(ctx)
			if err != nil {
				return err
			}
			if won {
				return nil // runElection promoted us
			}
			// Lost (or split) election: wait a jittered beat before retrying
			// so concurrent candidates desynchronize. A surviving primary's
			// next StateSync renews the lease meanwhile and ends the
			// candidacy.
			delay := 10*time.Millisecond + time.Duration(jitter.Int63n(int64(20*time.Millisecond)))
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(delay):
			}
			continue
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(poll):
		}
	}
}

// handleVoteRequest answers a quorum vote request. A grant is a durable
// promise: the voter records the epoch through its store (when it has one)
// before the grant leaves the process, so a crash-restarted voter can never
// hand the same epoch to a second candidate. A controller that is actively
// leading denies every vote — its own liveness refutes the candidate's
// premise that the primary is gone — and a standby denies while its lease
// is current, the proposed epoch is not strictly newest, or the candidate's
// mirror lags its own (electing a stale mirror would roll back rules the
// fleet already holds).
func (g *Global) handleVoteRequest(m *wire.VoteRequest) (wire.Message, error) {
	g.mu.Lock()
	leading := (!g.cfg.Standby || g.promoted) && !g.deposed
	var myCycle uint64
	if g.mirror != nil {
		myCycle = g.mirror.Cycle
	}
	deny := g.epoch
	if g.votedEpoch > deny {
		deny = g.votedEpoch
	}
	if leading || m.Epoch <= deny || time.Now().Before(g.leaseUntil) || m.Cycle < myCycle {
		g.mu.Unlock()
		g.faults.Vote(false)
		return &wire.LeaseGrant{VoterID: g.cfg.ID, Granted: false, Epoch: deny}, nil
	}
	g.votedEpoch = m.Epoch
	// Granting a vote restarts the voter's own election clock: the winner
	// gets a full lease to promote and start syncing before this standby
	// considers candidating itself.
	g.leaseUntil = time.Now().Add(g.cfg.LeaseTimeout)
	g.mu.Unlock()
	if g.cfg.Store != nil {
		if err := g.cfg.Store.AppendVote(m.Epoch); err != nil {
			// An unpersisted promise is not a promise: deny rather than
			// risk double-granting the epoch after a restart. votedEpoch
			// stays raised, which is safe (conservative) in memory.
			g.storeFault("persist vote", err)
			g.faults.Vote(false)
			return &wire.LeaseGrant{VoterID: g.cfg.ID, Granted: false, Epoch: m.Epoch}, nil
		}
	}
	g.faults.Vote(true)
	g.logf("controller: granted leadership vote to candidate %d at epoch %d", m.CandidateID, m.Epoch)
	return &wire.LeaseGrant{VoterID: g.cfg.ID, Granted: true, Epoch: m.Epoch}, nil
}

// runElection proposes this standby as primary at a fresh epoch and asks
// every quorum peer for a vote. It wins — and promotes — on a majority of
// the quorum (peers plus itself; it votes for itself first, durably). A
// denial carrying a higher epoch raises this controller's floor so the next
// proposal clears it.
func (g *Global) runElection(ctx context.Context) (bool, error) {
	g.mu.Lock()
	if g.promoted {
		g.mu.Unlock()
		return true, nil
	}
	proposed := g.epoch
	if g.votedEpoch > proposed {
		proposed = g.votedEpoch
	}
	proposed++
	var cycle uint64
	if g.mirror != nil {
		cycle = g.mirror.Cycle
	}
	g.votedEpoch = proposed // self-vote
	g.mu.Unlock()
	g.faults.Election()
	if g.cfg.Store != nil {
		// The self-vote must be durable before any peer hears the proposal.
		if err := g.cfg.Store.AppendVote(proposed); err != nil {
			g.storeFault("persist self-vote", err)
		}
	}
	peers := g.cfg.StandbyAddrs
	req := &wire.VoteRequest{CandidateID: g.cfg.ID, Epoch: proposed, Cycle: cycle}
	var mu sync.Mutex
	votes := 1 // self
	var maxSeen uint64
	rpc.Scatter(ctx, len(peers), len(peers), func(i int) {
		cctx, cancel := context.WithTimeout(ctx, g.cfg.CallTimeout)
		defer cancel()
		cli, err := rpc.Dial(cctx, g.cfg.Network, peers[i], rpc.DialOptions{Meter: g.cfg.Meter})
		if err != nil {
			return // dead peer: counts as a missing vote
		}
		defer cli.Close()
		resp, err := cli.Call(cctx, req)
		if err != nil {
			return
		}
		lg, ok := resp.(*wire.LeaseGrant)
		if !ok {
			return
		}
		mu.Lock()
		defer mu.Unlock()
		if lg.Granted && lg.Epoch == proposed {
			votes++
		} else if !lg.Granted && lg.Epoch > maxSeen {
			maxSeen = lg.Epoch
		}
	})
	if ctx.Err() != nil {
		return false, ctx.Err()
	}
	// The quorum is the addressed peers plus this candidate.
	majority := (len(peers)+1)/2 + 1
	if votes < majority {
		g.mu.Lock()
		if maxSeen > g.votedEpoch {
			// Someone leads (or voted) at a higher epoch: raise the floor so
			// the next proposal clears it.
			g.votedEpoch = maxSeen
		}
		g.mu.Unlock()
		g.logf("controller: election for epoch %d lost: %d/%d votes (majority %d)", proposed, votes, len(peers)+1, majority)
		return false, nil
	}
	g.logf("controller: election for epoch %d won: %d/%d votes", proposed, votes, len(peers)+1)
	return true, g.promoteTo(ctx, proposed)
}

// Promote turns a standby into the primary at the next free epoch: bump the
// leadership epoch past everything the old primary used (and everything
// this controller ever voted for), adopt the mirrored membership (dialing
// each child), re-seed per-child delta-enforcement caches with the rules the
// old primary last sent, and restore job weights and the cycle counter.
// Children the mirror missed — or that cannot be dialed — re-home themselves
// through the registration endpoint. Promote is idempotent.
func (g *Global) Promote(ctx context.Context) error {
	g.mu.Lock()
	epoch := g.epoch
	if g.votedEpoch > epoch {
		// Never lead with an epoch already promised to another candidate.
		epoch = g.votedEpoch
	}
	epoch++
	g.mu.Unlock()
	return g.promoteTo(ctx, epoch)
}

// promoteTo is Promote at an explicit epoch (a won election's granted
// epoch). The epoch allocation is fenced through the store — persisted
// durably before this controller mutates any leadership state or contacts
// any child — so a crash cannot forget an epoch the fleet may already have
// adopted.
func (g *Global) promoteTo(ctx context.Context, epoch uint64) error {
	g.mu.Lock()
	if g.promoted {
		g.mu.Unlock()
		return nil
	}
	if epoch <= g.epoch {
		epoch = g.epoch + 1
	}
	g.mu.Unlock()
	if g.cfg.Store != nil {
		if err := g.cfg.Store.AppendEpoch(epoch); err != nil {
			// Keep the promotion: a dead log disk must not leave the fleet
			// leaderless. Epoch fencing still holds in memory; only
			// crash-restart fencing is degraded, and that is logged.
			g.storeFault("persist promotion epoch", err)
		}
	}
	g.mu.Lock()
	if g.promoted {
		g.mu.Unlock()
		return nil
	}
	g.promoted = true
	if epoch > g.epoch {
		g.epoch = epoch
	}
	m := g.mirror
	if m != nil {
		if m.Cycle > g.cycle {
			g.cycle = m.Cycle
		}
		g.jobs.adoptWeights(m.Weights)
	}
	// The control gap of this failover starts at the last state the old
	// primary managed to replicate; RunCycle closes it on the first
	// completed cycle.
	g.gapStart = g.lastSyncAt
	if g.gapStart.IsZero() {
		g.gapStart = time.Now()
	}
	g.mu.Unlock()
	g.faults.Promotion()
	g.logf("controller: promoted to primary at epoch %d", epoch)
	if len(g.cfg.StandbyAddrs) > 0 {
		// The new primary takes over replication: its StateSyncs renew the
		// surviving standbys' leases, ending their candidacies.
		g.startSync()
	}
	if m != nil && g.cfg.Store != nil {
		// Re-log the adopted weights so the new primary's store is
		// self-contained (the old primary's log is unreachable by now).
		for _, w := range m.Weights {
			if err := g.cfg.Store.AppendWeight(w.JobID, w.Weight); err != nil {
				g.storeFault("append adopted weight", err)
			}
		}
	}
	if m == nil {
		return nil
	}
	g.adoptMembers(ctx, m, "promote")
	return nil
}

// adoptMembers dials every child in the mirrored (or recovered) state,
// adds it to the control plane, and re-seeds its delta-enforcement cache
// with the last rules the previous primary sent it. AddStage/AddAggregator
// append the registrations to the store; the seeded rules are appended here
// so the adopter's log is complete without waiting for the rules to change
// again.
func (g *Global) adoptMembers(ctx context.Context, m *wire.StateSync, why string) {
	// Adoption dials every mirrored child, so it runs with the same bounded
	// parallelism as a control cycle's scatter — sequential dials would put
	// the whole fleet size on the recovery critical path.
	rpc.Scatter(ctx, len(m.Members), g.cfg.FanOut, func(i int) {
		mem := &m.Members[i]
		var err error
		switch mem.Role {
		case wire.RoleStage:
			err = g.AddStage(ctx, stage.Info{ID: mem.ID, JobID: mem.JobID, Weight: mem.Weight, Addr: mem.Addr})
		case wire.RoleAggregator:
			stages := make([]stage.Info, len(mem.Stages))
			for k, s := range mem.Stages {
				stages[k] = stage.Info{ID: s.ID, JobID: s.JobID, Weight: s.Weight, Addr: s.Addr}
			}
			err = g.AddAggregator(ctx, mem.ID, mem.Addr, stages)
		default:
			return
		}
		if err != nil {
			// The child may be down or already re-homing; the registration
			// endpoint picks it up when it re-registers.
			g.logf("controller: %s: adopt %s %d: %v", why, mem.Role, mem.ID, err)
			return
		}
		if c := g.members.get(mem.ID); c != nil && len(mem.Rules) > 0 {
			c.seedRules(mem.Rules)
			g.logRules(m.Cycle, mem.ID, mem.Rules)
		}
	})
}

// Recover rebuilds a cold-started controller from its store: replayed
// membership, per-child last-enforced rules, job weights, and the cycle
// counter are adopted; leadership resumes at a fresh epoch strictly above
// everything the disk has seen (epoch or vote), persisted before any child
// is contacted. Children the recovered state misses re-home themselves
// through the registration endpoint, and the first control cycle — every
// adopted child starts with an empty report cache — is naturally a full
// collect+enforce pass that pushes the bumped epoch to the whole fleet.
func (g *Global) Recover(ctx context.Context) error {
	if g.cfg.Store == nil {
		return errors.New("controller: Recover requires a configured Store")
	}
	rec := g.cfg.Store.Recovered()
	g.mu.Lock()
	epoch := g.epoch
	if rec.Epoch > epoch {
		epoch = rec.Epoch
	}
	if rec.VotedEpoch > epoch {
		epoch = rec.VotedEpoch
	}
	epoch++
	g.mu.Unlock()
	// Unlike promotion, recovery refuses to proceed without the durable
	// epoch: the sole reason to cold-start from the store is crash safety,
	// and an unfenced epoch would hand the next crash a duplicate.
	if err := g.cfg.Store.AppendEpoch(epoch); err != nil {
		return fmt.Errorf("controller: recover: persist epoch: %w", err)
	}
	g.mu.Lock()
	g.epoch = epoch
	g.votedEpoch = epoch
	if g.cfg.Standby {
		g.promoted = true // a recovered controller leads, whatever its config says
	}
	if rec.Cycle > g.cycle {
		g.cycle = rec.Cycle
	}
	g.jobs.adoptWeights(rec.State.Weights)
	g.gapStart = time.Now()
	g.mu.Unlock()
	st := g.cfg.Store.Stats()
	g.logf("controller: recovering at epoch %d: %d members, %d weights, cycle %d (replayed %d records in %v)",
		epoch, len(rec.State.Members), len(rec.State.Weights), rec.Cycle, st.Replay.Records, st.Replay.Duration)
	if len(g.cfg.StandbyAddrs) > 0 {
		g.startSync()
	}
	g.adoptMembers(ctx, rec.State, "recover")
	return nil
}

// startSync launches the primary-side replication loop towards every
// configured standby. Idempotent: a controller that already replicates
// (because it was born primary) keeps its existing loop.
func (g *Global) startSync() {
	g.mu.Lock()
	if g.syncCancel != nil {
		g.mu.Unlock()
		return
	}
	ctx, cancel := context.WithCancel(context.Background())
	g.syncCancel = cancel
	g.syncDone = make(chan struct{})
	g.mu.Unlock()
	go g.syncLoop(ctx)
}

// syncLoop replicates state to every standby each SyncInterval. The state is
// marshalled once per tick (a shared frame) and shipped to all standbys
// concurrently. Each standby is dialed lazily (it may come up after the
// primary) and redialed after transport errors; the loop exits for good once
// the primary is deposed — by any standby's fencing or higher-epoch ack.
func (g *Global) syncLoop(ctx context.Context) {
	defer close(g.syncDone)
	targets := g.cfg.StandbyAddrs
	clients := make([]*rpc.Client, len(targets))
	defer func() {
		for _, cli := range clients {
			if cli != nil {
				cli.Close()
			}
		}
	}()
	tick := time.NewTicker(g.cfg.SyncInterval)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
		if g.Deposed() {
			return
		}
		msg := g.buildStateSync()
		// One encode per tick, shared across every standby's send queue.
		f := rpc.NewSharedFrame(msg)
		rpc.Scatter(ctx, len(targets), len(targets), func(i int) {
			if clients[i] == nil {
				c, err := rpc.Dial(ctx, g.cfg.Network, targets[i], rpc.DialOptions{Meter: g.cfg.Meter})
				if err != nil {
					return // standby not up yet: retry next tick
				}
				clients[i] = c
			}
			if err := g.syncOnce(ctx, clients[i], f, msg.Epoch); err != nil {
				if cur, ok := rpc.StaleEpochError(err); ok {
					g.stepDown(fmt.Sprintf("standby %s rejected state sync at epoch %d", targets[i], cur))
					return
				}
				if errors.Is(err, ErrDeposed) || ctx.Err() != nil {
					return
				}
				clients[i].Close()
				clients[i] = nil
			}
		})
		f.Release()
		if g.Deposed() {
			return
		}
	}
}

// syncOnce ships one pre-encoded StateSync frame and interprets the ack: a
// standby echoing a higher epoch has promoted itself, so the sender steps
// down.
func (g *Global) syncOnce(ctx context.Context, cli *rpc.Client, f *rpc.SharedFrame, epoch uint64) error {
	cctx, cancel := context.WithTimeout(ctx, g.cfg.CallTimeout)
	call := cli.GoShared(cctx, f)
	resp, err := call.Wait(cctx)
	cancel()
	if err != nil {
		return err
	}
	ack, ok := resp.(*wire.StateSyncAck)
	if !ok {
		return fmt.Errorf("controller: unexpected %s from standby", resp.Type())
	}
	if ack.Epoch > epoch {
		g.stepDown(fmt.Sprintf("standby promoted itself to epoch %d", ack.Epoch))
		return ErrDeposed
	}
	return nil
}

// buildStateSync snapshots everything a standby needs to take over:
// leadership epoch, cycle counter, lease duration, the full membership with
// per-child last-enforced rules, and the job-weight table.
func (g *Global) buildStateSync() *wire.StateSync {
	children := g.members.snapshot()
	members := make([]wire.MemberState, 0, len(children))
	for _, c := range children {
		m := c.memberState()
		m.Rules = c.snapshotRules()
		members = append(members, m)
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	msg := &wire.StateSync{
		PrimaryID:   g.cfg.ID,
		Epoch:       g.epoch,
		Cycle:       g.cycle,
		LeaseMicros: uint64(g.cfg.LeaseTimeout / time.Microsecond),
		Members:     members,
	}
	g.jobs.mu.Lock()
	defer g.jobs.mu.Unlock()
	for id, w := range g.jobs.weights {
		msg.Weights = append(msg.Weights, wire.JobWeight{JobID: id, Weight: w})
	}
	return msg
}

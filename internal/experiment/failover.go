package experiment

import (
	"context"
	"errors"
	"fmt"
	"os"
	"time"

	"github.com/dsrhaslab/sdscale/internal/cluster"
	"github.com/dsrhaslab/sdscale/internal/controller"
	"github.com/dsrhaslab/sdscale/internal/rpc"
	"github.com/dsrhaslab/sdscale/internal/store"
	"github.com/dsrhaslab/sdscale/internal/telemetry"
	"github.com/dsrhaslab/sdscale/internal/transport/simnet"
	"github.com/dsrhaslab/sdscale/internal/wire"
)

// FailoverNodes is the flat deployment size the failover scenario runs at.
// The paper's flat design centralizes all control state in one process
// (§IV-A); this scenario measures what that costs when the process dies.
const FailoverNodes = 1000

// failover scenario timing. Detection is tuned fast so the whole scenario
// fits in seconds: the primary syncs state (and renews its lease) every
// 25ms, and the standby declares it dead after 150ms of silence — the same
// multiple of the sync interval the controller defaults use.
const (
	failoverCyclePeriod   = 100 * time.Millisecond
	failoverSyncInterval  = 25 * time.Millisecond
	failoverLeaseTimeout  = 150 * time.Millisecond
	failoverParentTimeout = 300 * time.Millisecond
	failoverCallTimeout   = 250 * time.Millisecond
	failoverMaxFailures   = 2
	failoverProbeInterval = 25 * time.Millisecond
	// failoverRecoverCycles is the acceptance bound: control cycles must
	// resume within this many control intervals of the crash.
	failoverRecoverCycles = 5
	// Hard wall-clock budgets for the scenario's wait loops; generous so a
	// loaded CI runner times out the experiment rather than deadlocking it.
	failoverSettleBudget  = 10 * time.Second
	failoverRecoverBudget = 10 * time.Second
	failoverDeposeBudget  = 10 * time.Second
)

// FailoverResult reports the controller-failover scenario's outcome.
type FailoverResult struct {
	// Nodes is the stage count.
	Nodes int
	// OldEpoch and NewEpoch are the leadership epochs before the crash and
	// after the standby's promotion.
	OldEpoch, NewEpoch uint64
	// RecoveryGap is the wall-clock time from the primary's crash to the
	// standby's first completed control cycle; CyclesToRecover is the same
	// gap in control intervals (rounded up).
	RecoveryGap     time.Duration
	CyclesToRecover int
	// RecoveredCycles is how many cycles the promoted standby completed.
	RecoveredCycles uint64
	// ReHomed is how many children the promoted standby ended up owning
	// (must equal Nodes: no orphans).
	ReHomed int
	// EpochsAdopted is how many stages ended the run fencing at the new
	// leadership epoch.
	EpochsAdopted int
	// StageReRegistrations sums stage-initiated re-homes (orphaned stages
	// that re-registered on their own after upstream silence).
	StageReRegistrations uint64
	// FencedAtStages sums stale-epoch rejections issued by stages.
	FencedAtStages uint64
	// FencedSyncs counts StateSyncs from the deposed primary that the
	// promoted standby rejected.
	FencedSyncs uint64
	// StaleProbeRejected and StaleProbeIgnored report the explicit fencing
	// probe: an Enforce replayed with the dead primary's epoch must be
	// rejected with the current epoch and must not change the stage's rule.
	StaleProbeRejected, StaleProbeIgnored bool
	// PrimaryDeposed reports whether the healed zombie primary observed its
	// fencing and stepped down (its Run returned ErrDeposed).
	PrimaryDeposed bool
	// Primary and Standby are the two controllers' fault telemetry.
	Primary, Standby telemetry.FaultSummary

	// The remaining fields report the durability act: both controllers are
	// killed, and a cold controller restarts from the promoted standby's
	// on-disk store on a fresh host — no surviving process, no mirror,
	// no stage able to find it by address.

	// RestartEpoch is the leadership epoch the cold-restarted controller
	// leads with; it must supersede NewEpoch without any handoff.
	RestartEpoch uint64
	// RestartGap is the wall-clock time from the restart's store open to
	// its first completed control cycle; RestartCycles is the same gap in
	// control intervals (rounded up).
	RestartGap    time.Duration
	RestartCycles int
	// RestartMembers is how many children the restarted controller
	// recovered purely from its store.
	RestartMembers int
	// RulesRecovered and RulesLost compare every stage's live rule (frozen
	// when cycles stopped) against the state replayed from disk: zero rule
	// loss means every stage accounted for and RulesLost == 0.
	RulesRecovered, RulesLost int
	// WeightsRecovered is the number of job weights replayed from disk.
	WeightsRecovered int
	// ReplayRecords and ReplayDuration digest the restart's log replay;
	// ReplayHadSnapshot reports whether a compacted snapshot seeded it.
	ReplayRecords     uint64
	ReplayDuration    time.Duration
	ReplayHadSnapshot bool
	// RestartStaleProbeRejected reports whether an Enforce stamped with the
	// killed standby's epoch was rejected after the restart — epoch fencing
	// must hold across a full control-plane death, not just a failover.
	RestartStaleProbeRejected bool
}

// Failover runs the controller-crash scenario: a flat deployment with a
// warm standby, control cycles paced at a fixed period, and the primary's
// host crashed mid-run. It measures how long the control plane goes dark
// (lease expiry, standby promotion, membership adoption, first cycle),
// verifies every orphaned stage is re-homed, and proves epoch fencing: the
// deposed primary's messages are rejected everywhere, forcing it to step
// down once it reconnects.
func Failover(ctx context.Context, o Options) (FailoverResult, error) {
	o = o.withDefaults()
	nodes := o.scaled(FailoverNodes)

	// Every controller persists its control-plane mutations under dataDir,
	// so the final act — kill both, restart from disk — has a log to replay.
	dataDir, err := os.MkdirTemp("", "sdscale-failover-")
	if err != nil {
		return FailoverResult{}, fmt.Errorf("experiment failover: data dir: %w", err)
	}
	defer os.RemoveAll(dataDir)

	c, err := cluster.Build(cluster.Config{
		Topology:      cluster.Flat,
		Stages:        nodes,
		Jobs:          o.Jobs,
		Net:           *o.Net,
		CallTimeout:   failoverCallTimeout,
		MaxFailures:   failoverMaxFailures,
		ProbeInterval: failoverProbeInterval,
		Standbys:      1,
		LeaseTimeout:  failoverLeaseTimeout,
		SyncInterval:  failoverSyncInterval,
		ParentTimeout: failoverParentTimeout,
		DataDir:       dataDir,
	})
	if err != nil {
		return FailoverResult{}, fmt.Errorf("experiment failover: %w", err)
	}
	defer c.Close()
	g, sb := c.Global, c.Standby

	r := FailoverResult{Nodes: nodes, OldEpoch: g.Epoch()}

	// Warm up the primary (its sync loop replicates to the standby in the
	// background from the moment it was built).
	for i := 0; i < o.Warmup; i++ {
		if _, err := g.RunCycle(ctx); err != nil {
			return r, fmt.Errorf("experiment failover: warmup: %w", err)
		}
	}
	g.Recorder().Reset()

	// Run both controllers the way a real deployment would: the primary
	// paces cycles, the standby waits on its lease.
	runCtx, stopRun := context.WithCancel(ctx)
	defer stopRun()
	primaryDone := make(chan error, 1)
	go func() { primaryDone <- g.Run(runCtx, failoverCyclePeriod) }()
	standbyDone := make(chan error, 1)
	go func() { standbyDone <- sb.Run(runCtx, failoverCyclePeriod) }()

	// A couple of paced steady-state cycles before pulling the plug.
	if err := waitCycles(ctx, g.Recorder(), 2, failoverSettleBudget); err != nil {
		return r, fmt.Errorf("experiment failover: settle: %w", err)
	}

	// Crash the primary's host: connections die and dials fail, and —
	// unlike a partition — test teardown does not resurrect it.
	c.Net.Schedule([]simnet.FaultEvent{{Host: "global", Action: simnet.FaultCrash}}).Wait()
	crashAt := time.Now()

	// Recovery: the standby's lease must expire, it must promote, adopt the
	// mirrored fleet, and complete a control cycle.
	if err := waitCycles(ctx, sb.Recorder(), 1, failoverRecoverBudget); err != nil {
		return r, fmt.Errorf("experiment failover: standby never resumed cycles: %w", err)
	}
	r.RecoveryGap = time.Since(crashAt)
	r.CyclesToRecover = int((r.RecoveryGap + failoverCyclePeriod - 1) / failoverCyclePeriod)
	r.NewEpoch = sb.Epoch()

	// Re-homing: every stage the dead primary owned must end up owned by
	// the new primary (adoption from the mirror, or self re-registration —
	// whichever wins; duplicate registrations are reconnects, not errors).
	deadline := time.Now().Add(failoverRecoverBudget)
	for sb.NumChildren() < nodes && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	r.ReHomed = sb.NumChildren()

	// Fencing probe: replay an Enforce stamped with the dead primary's
	// epoch straight at a stage. It must be rejected with a stale-epoch
	// error naming the new epoch, and must not change the stage's rule.
	v := c.Stages[0]
	probeRule := wire.Rule{
		StageID: v.Info().ID,
		JobID:   v.Info().JobID,
		Action:  wire.ActionSetLimit,
		Limit:   wire.Rates{12345, 12345},
	}
	cli, err := rpc.Dial(ctx, c.Net.Host("failover-prober"), v.Info().Addr, rpc.DialOptions{})
	if err != nil {
		return r, fmt.Errorf("experiment failover: probe dial: %w", err)
	}
	_, callErr := cli.Call(ctx, &wire.Enforce{Cycle: 1 << 40, Rules: []wire.Rule{probeRule}, Epoch: r.OldEpoch})
	cli.Close()
	if cur, ok := rpc.StaleEpochError(callErr); ok && cur == r.NewEpoch {
		r.StaleProbeRejected = true
	}
	if rule, ok := v.LastRule(); !ok || rule.Limit != probeRule.Limit {
		r.StaleProbeIgnored = true
	}

	// Heal the crashed host, modeling the old primary's process coming back
	// as a zombie that still believes it leads. Its first contact with the
	// fleet — a rejected state sync or a fenced child call — must make it
	// step down, so its Run exits with ErrDeposed.
	c.Net.Host("global").SetPartitioned(false)
	select {
	case err := <-primaryDone:
		r.PrimaryDeposed = errors.Is(err, controller.ErrDeposed)
		if !r.PrimaryDeposed {
			return r, fmt.Errorf("experiment failover: primary exited with %v, want ErrDeposed", err)
		}
	case <-time.After(failoverDeposeBudget):
		return r, fmt.Errorf("experiment failover: healed zombie primary was never deposed")
	case <-ctx.Done():
		return r, ctx.Err()
	}

	stopRun()
	<-standbyDone

	for _, v := range c.Stages {
		r.FencedAtStages += v.FencedCalls()
		r.StageReRegistrations += v.ReRegistrations()
		if v.Epoch() == r.NewEpoch {
			r.EpochsAdopted++
		}
	}
	r.RecoveredCycles = sb.Recorder().Cycles()
	r.FencedSyncs = sb.FencedSyncs()
	r.Primary = g.Faults().Summarize()
	r.Standby = sb.Faults().Summarize()

	// --- Durability act: kill both controllers, restart from disk. -------

	// Freeze every stage's live rule while no cycle is running: this is
	// exactly the state the restarted controller must reproduce from its
	// log — any divergence is rule loss.
	liveRules := make(map[uint64]wire.Rule, len(c.Stages))
	for _, v := range c.Stages {
		if rule, ok := v.LastRule(); ok {
			liveRules[v.Info().ID] = rule
		}
	}

	// Kill what is left of the control plane: the deposed zombie and the
	// promoted standby. Closing them flushes and releases their stores —
	// torn-tail crash semantics are the store package's own test surface;
	// this act proves the control-plane state survives end to end.
	g.Close()
	sb.Close()

	restartStart := time.Now()
	st, err := store.Open(store.Options{Dir: cluster.StoreDir(dataDir, cluster.StandbyHost(0))})
	if err != nil {
		return r, fmt.Errorf("experiment failover: reopen standby store: %w", err)
	}
	rec := st.Recovered()
	r.WeightsRecovered = len(rec.State.Weights)

	// Zero rule loss: every frozen stage rule must be present in the
	// replayed state, limit for limit.
	recovered := make(map[uint64][]wire.Rule, len(rec.State.Members))
	for _, m := range rec.State.Members {
		recovered[m.ID] = m.Rules
	}
	for id, rule := range liveRules {
		found := false
		for _, rr := range recovered[id] {
			if rr.JobID == rule.JobID && rr.Action == rule.Action && rr.Limit == rule.Limit {
				found = true
				break
			}
		}
		if found {
			r.RulesRecovered++
		} else {
			r.RulesLost++
		}
	}

	// The restarted controller runs on a host no stage has in its parent
	// list: every child it ends up with was recovered from disk and
	// re-adopted by dialing, never re-registered.
	g2, err := controller.StartGlobal(controller.GlobalConfig{
		Network:       c.Net.Host("global-restart"),
		ID:            9,
		Capacity:      c.Config().Capacity,
		CallTimeout:   failoverCallTimeout,
		MaxFailures:   failoverMaxFailures,
		ProbeInterval: failoverProbeInterval,
		Store:         st,
	})
	if err != nil {
		st.Close()
		return r, fmt.Errorf("experiment failover: restart controller: %w", err)
	}
	defer g2.Close()
	if err := g2.Recover(ctx); err != nil {
		return r, fmt.Errorf("experiment failover: recover: %w", err)
	}
	sst := g2.Stats().Store
	r.ReplayRecords = sst.Replay.Records
	r.ReplayDuration = sst.Replay.Duration
	r.ReplayHadSnapshot = sst.Replay.HadSnapshot

	restartCtx, stopRestart := context.WithCancel(ctx)
	defer stopRestart()
	restartDone := make(chan error, 1)
	go func() { restartDone <- g2.Run(restartCtx, failoverCyclePeriod) }()
	if err := waitCycles(ctx, g2.Recorder(), 1, failoverRecoverBudget); err != nil {
		return r, fmt.Errorf("experiment failover: restarted controller never cycled: %w", err)
	}
	r.RestartGap = time.Since(restartStart)
	r.RestartCycles = int((r.RestartGap + failoverCyclePeriod - 1) / failoverCyclePeriod)
	r.RestartEpoch = g2.Epoch()

	deadline = time.Now().Add(failoverRecoverBudget)
	for g2.NumChildren() < nodes && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	r.RestartMembers = g2.NumChildren()

	// Fencing across the full death: the killed standby's epoch must be
	// rejected by the fleet once the restarted controller's first cycle has
	// propagated its bumped epoch.
	cli, err = rpc.Dial(ctx, c.Net.Host("restart-prober"), v.Info().Addr, rpc.DialOptions{})
	if err != nil {
		return r, fmt.Errorf("experiment failover: restart probe dial: %w", err)
	}
	_, callErr = cli.Call(ctx, &wire.Enforce{Cycle: 1 << 41, Rules: []wire.Rule{probeRule}, Epoch: r.NewEpoch})
	cli.Close()
	if cur, ok := rpc.StaleEpochError(callErr); ok && cur == r.RestartEpoch {
		r.RestartStaleProbeRejected = true
	}

	stopRestart()
	<-restartDone
	return r, nil
}

// waitCycles polls the recorder until it has seen at least want cycles.
func waitCycles(ctx context.Context, rec *telemetry.CycleRecorder, want uint64, budget time.Duration) error {
	deadline := time.Now().Add(budget)
	for rec.Cycles() < want {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("timed out waiting for %d cycles (have %d)", want, rec.Cycles())
		}
		time.Sleep(2 * time.Millisecond)
	}
	return nil
}

// PrintFailover renders the scenario's outcome.
func PrintFailover(o Options, r FailoverResult) {
	o = o.withDefaults()
	o.printf("failover — flat control plane with warm standby, %d nodes, primary crashed mid-run\n", r.Nodes)
	o.printf("  leadership epoch        %d -> %d\n", r.OldEpoch, r.NewEpoch)
	o.printf("  control gap             %v (%d control intervals of %v)\n",
		r.RecoveryGap.Round(time.Millisecond), r.CyclesToRecover, failoverCyclePeriod)
	o.printf("  re-homed                %d/%d children (%d at new epoch, %d stage-initiated re-homes)\n",
		r.ReHomed, r.Nodes, r.EpochsAdopted, r.StageReRegistrations)
	o.printf("  recovered cycles        %d completed by the promoted standby\n", r.RecoveredCycles)
	o.printf("  fencing                 %d stale calls rejected at stages, %d stale syncs rejected at standby\n",
		r.FencedAtStages, r.FencedSyncs)
	o.printf("  stale-enforce probe     rejected=%v rule-unchanged=%v\n", r.StaleProbeRejected, r.StaleProbeIgnored)
	o.printf("  zombie primary          deposed=%v (step_downs=%d)\n", r.PrimaryDeposed, r.Primary.StepDowns)
	o.printf("  standby faults          %v\n", r.Standby)
	o.printf("  -- durability act: both controllers killed, cold restart from disk --\n")
	o.printf("  restart epoch           %d -> %d\n", r.NewEpoch, r.RestartEpoch)
	o.printf("  restart gap             %v (%d control intervals; replayed %d records in %v, snapshot=%v)\n",
		r.RestartGap.Round(time.Millisecond), r.RestartCycles, r.ReplayRecords,
		r.ReplayDuration.Round(time.Microsecond), r.ReplayHadSnapshot)
	o.printf("  recovered from disk     %d/%d members, %d job weights\n", r.RestartMembers, r.Nodes, r.WeightsRecovered)
	o.printf("  rule loss               %d recovered, %d lost\n", r.RulesRecovered, r.RulesLost)
	o.printf("  stale probe after kill  rejected=%v\n\n", r.RestartStaleProbeRejected)
}

// CheckFailover asserts the scenario's dependability claims: exactly one
// promotion with a bumped epoch, cycles resuming within the recovery budget,
// every orphaned child re-homed, zero stale-epoch messages accepted
// anywhere, and the zombie primary fenced into stepping down.
func CheckFailover(r FailoverResult) error {
	if r.Standby.Promotions != 1 {
		return fmt.Errorf("failover: %d promotions, want exactly 1", r.Standby.Promotions)
	}
	if r.NewEpoch <= r.OldEpoch {
		return fmt.Errorf("failover: promoted epoch %d does not supersede %d", r.NewEpoch, r.OldEpoch)
	}
	if r.CyclesToRecover > failoverRecoverCycles {
		return fmt.Errorf("failover: cycles resumed after %d control intervals (%v), want <= %d",
			r.CyclesToRecover, r.RecoveryGap, failoverRecoverCycles)
	}
	if r.ReHomed != r.Nodes {
		return fmt.Errorf("failover: only %d/%d children re-homed to the new primary", r.ReHomed, r.Nodes)
	}
	if r.EpochsAdopted != r.Nodes {
		return fmt.Errorf("failover: only %d/%d stages fence at the new epoch", r.EpochsAdopted, r.Nodes)
	}
	if r.FencedAtStages == 0 {
		return fmt.Errorf("failover: no stage ever rejected a stale-epoch call")
	}
	if !r.StaleProbeRejected {
		return fmt.Errorf("failover: stale-epoch Enforce probe was not rejected with the new epoch")
	}
	if !r.StaleProbeIgnored {
		return fmt.Errorf("failover: stale-epoch Enforce probe changed a stage's rule")
	}
	if !r.PrimaryDeposed {
		return fmt.Errorf("failover: zombie primary was never deposed")
	}
	if r.Primary.StepDowns != 1 {
		return fmt.Errorf("failover: primary recorded %d step-downs, want exactly 1", r.Primary.StepDowns)
	}
	if r.Standby.MaxControlGap <= 0 {
		return fmt.Errorf("failover: promoted standby recorded no control gap")
	}
	// Durability act.
	if r.RestartEpoch <= r.NewEpoch {
		return fmt.Errorf("failover: restarted epoch %d does not supersede the killed standby's %d", r.RestartEpoch, r.NewEpoch)
	}
	if r.RestartMembers != r.Nodes {
		return fmt.Errorf("failover: cold restart recovered %d/%d members from disk", r.RestartMembers, r.Nodes)
	}
	if r.RulesLost != 0 {
		return fmt.Errorf("failover: %d stage rules lost across the kill-both restart", r.RulesLost)
	}
	if r.RulesRecovered != r.Nodes {
		return fmt.Errorf("failover: only %d/%d stage rules recovered from disk", r.RulesRecovered, r.Nodes)
	}
	if r.WeightsRecovered == 0 {
		return fmt.Errorf("failover: no job weights recovered from disk")
	}
	if !r.RestartStaleProbeRejected {
		return fmt.Errorf("failover: the killed standby's epoch was still accepted after the restart")
	}
	return nil
}

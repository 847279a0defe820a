package experiment

import (
	"context"
	"fmt"
	"os"
	"sync"
	"time"

	"github.com/dsrhaslab/sdscale/internal/cluster"
	"github.com/dsrhaslab/sdscale/internal/controller"
	"github.com/dsrhaslab/sdscale/internal/telemetry"
	"github.com/dsrhaslab/sdscale/internal/transport/simnet"
)

// ShardNodes is the sharded deployment size the scenario runs at, and
// ShardCount how many shard leaders partition it. Each shard gets
// ShardStandbys warm standbys, so a shard leader's death is settled by that
// shard's own quorum election while the other shards keep cycling.
const (
	ShardNodes    = 1000
	ShardCount    = 4
	ShardStandbys = 2
)

// shard scenario bounds, reusing the failover scenario's detection timing
// (sync every 25ms, lease dead after 150ms).
const (
	// shardBaselineCycles is the healthy-deployment settle window measured
	// before the kill.
	shardBaselineCycles = 5
	// shardRecoverBudget is the wall-clock budget for the dead shard's
	// election, re-homing, and first recovered cycle.
	shardRecoverBudget = 15 * time.Second
	// shardRecoverCycles bounds recovery in control intervals, like the
	// failover scenario but for one shard: a quorum election among the
	// shard's own standbys, not a whole-fleet outage.
	shardRecoverCycles = 8
	// shardDisturbRatio and shardDisturbSlack bound the surviving shards'
	// per-cycle latency while the dead shard recovers: undisturbed means
	// within shardDisturbRatio of the healthy baseline, or within an
	// absolute shardDisturbSlack of it (sub-millisecond baselines make
	// pure ratios meaningless on a loaded runner).
	shardDisturbRatio = 5.0
	shardDisturbSlack = 100 * time.Millisecond
)

// ShardResult reports the shard-leader-kill scenario's outcome.
type ShardResult struct {
	// Nodes and Shards describe the deployment.
	Nodes, Shards int
	// Victim is the killed shard (the most populated one) and
	// VictimChildren how many children it owned at the kill.
	Victim, VictimChildren int
	// OldEpoch and NewEpoch are the victim shard's leadership epochs
	// before the kill and after its quorum election.
	OldEpoch, NewEpoch uint64
	// Promotions counts promotions observed by the shard's elected leader
	// (must be exactly one).
	Promotions uint64
	// RecoveryGap is the wall clock from the kill to the elected leader's
	// first completed cycle; CyclesToRecover the same in control
	// intervals of the paced loop.
	RecoveryGap     time.Duration
	CyclesToRecover int
	// ReHomed is how many children the elected leader owns after
	// recovery (must equal VictimChildren: no orphans).
	ReHomed int
	// SurvivorBaseline and SurvivorDuring are each surviving shard's mean
	// cycle latency before the kill and while the dead shard recovered,
	// index-aligned with Survivors.
	Survivors        []int
	SurvivorBaseline []time.Duration
	SurvivorDuring   []time.Duration
	// DisturbanceRatio is the worst survivor's during/baseline ratio.
	DisturbanceRatio float64
	// SurvivorCycleErrors counts failed survivor cycles during the dead
	// window (must be zero), over SurvivorCycles attempts per survivor.
	SurvivorCycleErrors int
	SurvivorCycles      int
	// RouterCyclesOK reports whether whole-deployment routed cycles
	// succeeded once the election settled, with no healing step: the
	// routing tier resolves the shard's new leader by itself.
	RouterCyclesOK bool
	// RulesRecovered and RulesLost compare, for every child of the dead
	// shard, the elected leader's rule state against the rule the child
	// actually holds: zero loss means the handed-over shard's control
	// state is complete.
	RulesRecovered, RulesLost int
	// FencedAtStages sums stale-epoch rejections issued by the victim
	// shard's children — the dead leader's epoch must be fenced out.
	FencedAtStages uint64
}

// Shard runs the shard-leader-kill scenario: a fleet partitioned across
// ShardCount concurrently active shard leaders, each with its own standby
// quorum and write-ahead store, cycles paced across all shards through the
// routing tier. One shard leader's host is crashed mid-run. The surviving
// shards' cycle latency must be undisturbed while the dead shard recovers
// through its own quorum election, and the recovered shard must come back
// with every child and every rule intact.
func Shard(ctx context.Context, o Options) (ShardResult, error) {
	o = o.withDefaults()
	nodes := o.scaled(ShardNodes)

	dataDir, err := os.MkdirTemp("", "sdscale-shard-")
	if err != nil {
		return ShardResult{}, fmt.Errorf("experiment shard: data dir: %w", err)
	}
	defer os.RemoveAll(dataDir)

	c, err := cluster.Build(cluster.Config{
		Topology:      cluster.Flat,
		Stages:        nodes,
		Jobs:          o.Jobs,
		Shards:        ShardCount,
		Standbys:      ShardStandbys,
		Net:           *o.Net,
		CallTimeout:   failoverCallTimeout,
		MaxFailures:   failoverMaxFailures,
		ProbeInterval: failoverProbeInterval,
		LeaseTimeout:  failoverLeaseTimeout,
		SyncInterval:  failoverSyncInterval,
		ParentTimeout: failoverParentTimeout,
		DataDir:       dataDir,
	})
	if err != nil {
		return ShardResult{}, fmt.Errorf("experiment shard: %w", err)
	}
	defer c.Close()

	r := ShardResult{Nodes: nodes, Shards: ShardCount}

	// The victim is the most populated shard: killing the biggest blast
	// radius makes the survivors' indifference the strongest claim.
	for s, g := range c.Globals {
		if n := g.NumChildren(); n > r.VictimChildren {
			r.Victim, r.VictimChildren = s, n
		}
	}
	victim := c.Globals[r.Victim]
	r.OldEpoch = victim.Epoch()
	for s := range c.Globals {
		if s != r.Victim {
			r.Survivors = append(r.Survivors, s)
		}
	}

	// Healthy baseline through the routing tier: every shard cycles
	// concurrently, each leader's recorder timing its own shard.
	for _, g := range c.Globals {
		g.Recorder().Reset()
	}
	for i := 0; i < shardBaselineCycles+o.Warmup; i++ {
		if _, err := c.RunControlCycle(ctx); err != nil {
			return r, fmt.Errorf("experiment shard: baseline cycle: %w", err)
		}
	}
	for _, s := range r.Survivors {
		r.SurvivorBaseline = append(r.SurvivorBaseline, c.Globals[s].Recorder().Phase(telemetry.PhaseTotal).Mean())
	}

	// Kill the victim shard's leader: its host crashes, its children go
	// dark, and its standbys' leases start running out.
	c.Net.Schedule([]simnet.FaultEvent{{Host: cluster.ShardHost(r.Victim), Action: simnet.FaultCrash}}).Wait()
	crashAt := time.Now()
	for _, s := range r.Survivors {
		c.Globals[s].Recorder().Reset()
	}

	// Only now arm the victim shard's standbys: their lease watch loops
	// notice the silence, hold a majority election among the shard's
	// voters, and the winner re-homes the shard's children and resumes
	// paced cycles. The surviving shards never participate.
	group := c.Router.Group(r.Victim)
	standbys := group.Members()[1:]
	sbCtx, stopStandbys := context.WithCancel(ctx)
	defer stopStandbys()
	var sbWg sync.WaitGroup
	for _, sb := range standbys {
		sbWg.Add(1)
		go func(sb *controller.Global) {
			defer sbWg.Done()
			_ = sb.Run(sbCtx, failoverCyclePeriod)
		}(sb)
	}

	// While the dead shard recovers, keep driving the survivors exactly as
	// the routing tier does — one concurrent cycle per live shard — and
	// time each from its own recorder. The victim shard is left to its
	// election; driving its doomed leader would only measure timeouts.
	var elected *controller.Global
	deadline := time.Now().Add(shardRecoverBudget)
	for {
		var wg sync.WaitGroup
		var errCount int
		var errMu sync.Mutex
		for _, s := range r.Survivors {
			wg.Add(1)
			go func(g *controller.Global) {
				defer wg.Done()
				if _, err := g.RunCycle(ctx); err != nil {
					errMu.Lock()
					errCount++
					errMu.Unlock()
				}
			}(c.Globals[s])
		}
		wg.Wait()
		r.SurvivorCycles++
		r.SurvivorCycleErrors += errCount

		if lead := group.Leader(); lead != victim && lead.Promoted() && lead.Recorder().Cycles() >= 1 {
			elected = lead
			break
		}
		if ctx.Err() != nil {
			return r, ctx.Err()
		}
		if time.Now().After(deadline) {
			return r, fmt.Errorf("experiment shard: shard %d never recovered within %v", r.Victim, shardRecoverBudget)
		}
		time.Sleep(2 * time.Millisecond)
	}
	r.RecoveryGap = time.Since(crashAt)
	r.CyclesToRecover = int((r.RecoveryGap + failoverCyclePeriod - 1) / failoverCyclePeriod)
	r.NewEpoch = elected.Epoch()
	r.Promotions = elected.Faults().Summarize().Promotions
	for _, s := range r.Survivors {
		r.SurvivorDuring = append(r.SurvivorDuring, c.Globals[s].Recorder().Phase(telemetry.PhaseTotal).Mean())
	}
	for i := range r.Survivors {
		base := r.SurvivorBaseline[i]
		if base < 500*time.Microsecond {
			base = 500 * time.Microsecond
		}
		if ratio := float64(r.SurvivorDuring[i]) / float64(base); ratio > r.DisturbanceRatio {
			r.DisturbanceRatio = ratio
		}
	}

	// Re-homing: every child the dead leader owned must end up owned by
	// the elected leader (mirror adoption or self re-registration).
	deadline = time.Now().Add(shardRecoverBudget)
	for elected.NumChildren() < r.VictimChildren && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	r.ReHomed = elected.NumChildren()

	// Stop the elected leader's paced loop, then prove the routing tier
	// heals transparently: whole-deployment cycles through the router must
	// succeed with no reconfiguration, resolving the shard to its new
	// leader by epoch.
	stopStandbys()
	sbWg.Wait()
	r.RouterCyclesOK = true
	for i := 0; i < 2; i++ {
		if _, err := c.RunControlCycle(ctx); err != nil {
			r.RouterCyclesOK = false
			return r, fmt.Errorf("experiment shard: routed cycle after recovery: %w", err)
		}
	}

	// Zero rule loss: for every child of the dead shard, the rule the
	// child actually enforces must be exactly what the elected leader's
	// state says it enforced — a complete, consistent handover.
	for _, id := range elected.ChildIDs() {
		v := c.Stages[id-1]
		live, ok := v.LastRule()
		if !ok {
			r.RulesLost++
			continue
		}
		_, rules, ok := elected.ChildSnapshot(id)
		if !ok {
			r.RulesLost++
			continue
		}
		found := false
		for _, rr := range rules {
			if rr.JobID == live.JobID && rr.Action == live.Action && rr.Limit == live.Limit {
				found = true
				break
			}
		}
		if found {
			r.RulesRecovered++
		} else {
			r.RulesLost++
		}
		r.FencedAtStages += v.FencedCalls()
	}
	return r, nil
}

// PrintShard renders the scenario's outcome.
func PrintShard(o Options, r ShardResult) {
	o = o.withDefaults()
	o.printf("shard — %d nodes across %d shard leaders, shard %d's leader (%d children) crashed mid-run\n",
		r.Nodes, r.Shards, r.Victim, r.VictimChildren)
	o.printf("  victim epoch            %d -> %d (promotions=%d, quorum of %d standbys)\n",
		r.OldEpoch, r.NewEpoch, r.Promotions, ShardStandbys)
	o.printf("  recovery gap            %v (%d control intervals of %v)\n",
		r.RecoveryGap.Round(time.Millisecond), r.CyclesToRecover, failoverCyclePeriod)
	o.printf("  re-homed                %d/%d children of the dead shard\n", r.ReHomed, r.VictimChildren)
	for i, s := range r.Survivors {
		o.printf("  survivor shard %d        %v -> %v per cycle (baseline -> dead window)\n",
			s, r.SurvivorBaseline[i].Round(time.Microsecond), r.SurvivorDuring[i].Round(time.Microsecond))
	}
	o.printf("  worst disturbance       %.2fx baseline (%d/%d survivor cycles failed)\n",
		r.DisturbanceRatio, r.SurvivorCycleErrors, r.SurvivorCycles*len(r.Survivors))
	o.printf("  routed cycles healed    %v (router resolves the elected leader by epoch)\n", r.RouterCyclesOK)
	o.printf("  rule consistency        %d recovered, %d lost (%d stale calls fenced at stages)\n\n",
		r.RulesRecovered, r.RulesLost, r.FencedAtStages)
}

// CheckShard asserts the scenario's claims: the dead shard recovered
// through exactly one quorum promotion with a superseding epoch and every
// child re-homed with its rules intact, the surviving shards' cycles never
// failed and stayed within the disturbance bound, and routed
// whole-deployment cycles work again with no manual healing.
func CheckShard(r ShardResult) error {
	if r.VictimChildren == 0 {
		return fmt.Errorf("shard: victim shard owned no children")
	}
	if r.Promotions != 1 {
		return fmt.Errorf("shard: %d promotions on the elected leader, want exactly 1", r.Promotions)
	}
	if r.NewEpoch <= r.OldEpoch {
		return fmt.Errorf("shard: elected epoch %d does not supersede %d", r.NewEpoch, r.OldEpoch)
	}
	if r.CyclesToRecover > shardRecoverCycles {
		return fmt.Errorf("shard: recovery took %d control intervals (%v), want <= %d",
			r.CyclesToRecover, r.RecoveryGap, shardRecoverCycles)
	}
	if r.ReHomed != r.VictimChildren {
		return fmt.Errorf("shard: only %d/%d children re-homed to the elected leader", r.ReHomed, r.VictimChildren)
	}
	if r.SurvivorCycleErrors != 0 {
		return fmt.Errorf("shard: %d survivor cycles failed during the dead window", r.SurvivorCycleErrors)
	}
	for i := range r.Survivors {
		during, base := r.SurvivorDuring[i], r.SurvivorBaseline[i]
		if during <= base+shardDisturbSlack {
			continue
		}
		if float64(during) > shardDisturbRatio*float64(base) {
			return fmt.Errorf("shard: survivor shard %d disturbed: %v per cycle during the dead window vs %v baseline",
				r.Survivors[i], during, base)
		}
	}
	if !r.RouterCyclesOK {
		return fmt.Errorf("shard: routed cycles did not succeed after recovery")
	}
	if r.RulesLost != 0 {
		return fmt.Errorf("shard: %d rules lost across the shard recovery", r.RulesLost)
	}
	if r.RulesRecovered != r.VictimChildren {
		return fmt.Errorf("shard: only %d/%d rules consistent after recovery", r.RulesRecovered, r.VictimChildren)
	}
	return nil
}

package cluster

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/dsrhaslab/sdscale/internal/controller"
	"github.com/dsrhaslab/sdscale/internal/transport/simnet"
	"github.com/dsrhaslab/sdscale/internal/wire"
)

// fastNet removes simulated latency for logic tests.
func fastNet() simnet.Config { return simnet.Config{PropDelay: -1} }

func TestBuildFlat(t *testing.T) {
	c, err := Build(Config{Topology: Flat, Stages: 20, Jobs: 4, Net: fastNet()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if len(c.Stages) != 20 {
		t.Errorf("stages = %d", len(c.Stages))
	}
	if len(c.Aggregators) != 0 {
		t.Errorf("aggregators = %d, want 0 for flat", len(c.Aggregators))
	}
	if c.Global.NumChildren() != 20 {
		t.Errorf("global children = %d", c.Global.NumChildren())
	}
	if c.Global.NumStages() != 20 {
		t.Errorf("global stages = %d", c.Global.NumStages())
	}
	if _, err := c.Global.RunCycle(context.Background()); err != nil {
		t.Fatalf("cycle: %v", err)
	}
	for i, v := range c.Stages {
		if _, ok := v.LastRule(); !ok {
			t.Fatalf("stage %d got no rule", i)
		}
	}
}

func TestBuildHierarchical(t *testing.T) {
	c, err := Build(Config{Topology: Hierarchical, Stages: 24, Jobs: 4, Aggregators: 3, Net: fastNet()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if len(c.Aggregators) != 3 {
		t.Fatalf("aggregators = %d", len(c.Aggregators))
	}
	for i, a := range c.Aggregators {
		if a.NumStages() != 8 {
			t.Errorf("aggregator %d stages = %d, want 8", i, a.NumStages())
		}
	}
	if c.Global.NumChildren() != 3 || c.Global.NumStages() != 24 {
		t.Errorf("global children/stages = %d/%d", c.Global.NumChildren(), c.Global.NumStages())
	}
	if _, err := c.Global.RunCycle(context.Background()); err != nil {
		t.Fatalf("cycle: %v", err)
	}
	for i, v := range c.Stages {
		if _, ok := v.LastRule(); !ok {
			t.Fatalf("stage %d got no rule", i)
		}
	}
}

func TestBuildHierarchicalUnevenPartition(t *testing.T) {
	c, err := Build(Config{Topology: Hierarchical, Stages: 10, Aggregators: 3, Net: fastNet()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	total := 0
	for _, a := range c.Aggregators {
		total += a.NumStages()
	}
	if total != 10 {
		t.Errorf("partitioned stages = %d, want 10", total)
	}
	if _, err := c.Global.RunCycle(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestDefaultAggregatorCount(t *testing.T) {
	cfg := Config{Topology: Hierarchical, Stages: 6000}.withDefaults()
	// 6000 stages need ceil(6000/2500) = 3 aggregators.
	if cfg.Aggregators != 3 {
		t.Errorf("default aggregators = %d, want 3", cfg.Aggregators)
	}
	// A coordinated deployment's controllers are its shards, with the same
	// default.
	if cfg := (Config{Topology: Coordinated, Stages: 6000}).withDefaults(); cfg.Shards != 3 {
		t.Errorf("default coordinated shards = %d, want 3", cfg.Shards)
	}
}

func TestDefaultCapacityScalesWithStages(t *testing.T) {
	cfg := Config{Topology: Flat, Stages: 100}.withDefaults()
	if cfg.Capacity[wire.ClassData] != 50000 {
		t.Errorf("default data capacity = %g", cfg.Capacity[wire.ClassData])
	}
}

func TestBuildRejectsZeroStages(t *testing.T) {
	if _, err := Build(Config{Topology: Flat, Stages: 0}); err == nil {
		t.Fatal("Build with 0 stages succeeded")
	}
}

func TestTopologyString(t *testing.T) {
	if Flat.String() != "flat" || Hierarchical.String() != "hierarchical" {
		t.Error("topology names wrong")
	}
	if !strings.Contains(Topology(9).String(), "9") {
		t.Error("unknown topology name")
	}
}

func TestFlatConnectionLimit(t *testing.T) {
	// With the paper's 2,500-connection limit scaled down to 10, a flat
	// build over 11 stages must fail — the §IV-A scalability cliff.
	_, err := Build(Config{
		Topology: Flat,
		Stages:   11,
		Net:      simnet.Config{PropDelay: -1, MaxConnsPerHost: 10},
	})
	if err == nil {
		t.Fatal("flat build beyond the connection limit succeeded")
	}
}

func TestHierarchicalEscapesConnectionLimit(t *testing.T) {
	// Same limit, but 2 aggregators of 6 connections each fit, proving the
	// hierarchy's reason to exist.
	c, err := Build(Config{
		Topology:    Hierarchical,
		Stages:      11,
		Aggregators: 2,
		Net:         simnet.Config{PropDelay: -1, MaxConnsPerHost: 10},
	})
	if err != nil {
		t.Fatalf("hierarchical build under the same limit failed: %v", err)
	}
	defer c.Close()
	if _, err := c.Global.RunCycle(context.Background()); err != nil {
		t.Fatalf("cycle: %v", err)
	}
}

// TestCoordinatedPlacementBalanced: a coordinated deployment places the
// fleet in contiguous slices whose sizes differ by at most one, so no leader
// is left without children when Shards does not divide Stages. When it does,
// slice s is stages s·Stages/Shards+1 onward, as with equal-sized slices.
func TestCoordinatedPlacementBalanced(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct{ stages, shards int }{{9, 4}, {10, 4}, {7, 3}, {8, 4}, {6, 2}} {
		c, err := Build(Config{Topology: Coordinated, Stages: tc.stages, Jobs: 2, Shards: tc.shards, Net: fastNet()})
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("%d stages on %d leaders", tc.stages, tc.shards)
		counts := make([]int, tc.shards)
		prev := 0
		for i, v := range c.Stages {
			s, _ := c.Router.Route(v.Info().ID)
			if s < prev {
				t.Errorf("%s: stage %d routes to shard %d after shard %d: not contiguous", label, v.Info().ID, s, prev)
			}
			if per := tc.stages / tc.shards; tc.stages%tc.shards == 0 && s != i/per {
				t.Errorf("%s: stage %d routes to shard %d, want %d", label, v.Info().ID, s, i/per)
			}
			prev = s
			counts[s]++
		}
		for s, n := range counts {
			if lo := tc.stages / tc.shards; n < lo || n > lo+1 {
				t.Errorf("%s: leader %d owns %d stages, want %d or %d", label, s, n, lo, lo+1)
			}
		}
		if _, err := c.RunControlCycle(ctx); err != nil {
			t.Errorf("%s: cycle: %v", label, err)
		}
		c.Close()
	}
}

func TestBuildCoordinated(t *testing.T) {
	c, err := Build(Config{Topology: Coordinated, Stages: 12, Jobs: 3, Shards: 3, Net: fastNet()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if c.Global != nil {
		t.Error("coordinated cluster has a global controller")
	}
	if len(c.Globals) != 3 || c.Router.NumShards() != 3 {
		t.Fatalf("leaders = %d, router shards = %d", len(c.Globals), c.Router.NumShards())
	}
	for i, p := range c.Globals {
		if p.NumStages() != 4 {
			t.Errorf("leader %d stages = %d, want 4", i, p.NumStages())
		}
		if p.NumPeers() != 2 {
			t.Errorf("leader %d mesh = %d, want 2", i, p.NumPeers())
		}
		if p.ID() != uint64(2_000_000+i) {
			t.Errorf("leader %d ID = %d, want %d", i, p.ID(), 2_000_000+i)
		}
	}
	// Placement is contiguous: stage IDs 1-4 on leader 0, 5-8 on 1, 9-12
	// on 2.
	for i, v := range c.Stages {
		if s, _ := c.Router.Route(v.Info().ID); s != i/4 {
			t.Errorf("stage %d routes to shard %d, want %d", v.Info().ID, s, i/4)
		}
	}

	ctx := context.Background()
	// Two rounds: aggregates propagate in round 1, so round 2 computes
	// with global visibility everywhere.
	for round := 0; round < 2; round++ {
		if _, err := c.RunControlCycle(ctx); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
	// Default capacity = 12 × 500 data; global view has 12 stages: each
	// stage's limit must equal 500, same as the other topologies.
	for i, v := range c.Stages {
		rule, ok := v.LastRule()
		if !ok {
			t.Fatalf("stage %d got no rule", i)
		}
		if rule.Limit[wire.ClassData] != 500 {
			t.Errorf("stage %d limit = %g, want 500", i, rule.Limit[wire.ClassData])
		}
	}
	if c.Recorder().Cycles() != 2 {
		t.Errorf("recorded rounds = %d", c.Recorder().Cycles())
	}
}

func TestCoordinatedEscapesConnectionLimit(t *testing.T) {
	// Same 10-connection limit as the flat/hierarchical tests: 11 stages
	// need at least 2 leaders.
	c, err := Build(Config{
		Topology: Coordinated,
		Stages:   11,
		Shards:   2,
		Net:      simnet.Config{PropDelay: -1, MaxConnsPerHost: 10},
	})
	if err != nil {
		t.Fatalf("coordinated build under the limit failed: %v", err)
	}
	defer c.Close()
	if _, err := c.RunControlCycle(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestCoordinatedUsageCollector(t *testing.T) {
	c, err := Build(Config{Topology: Coordinated, Stages: 8, Shards: 2, Tracing: true, Net: fastNet()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// The leaders are the mid tier for tracing too.
	if c.Trace.Global != nil || len(c.Trace.Mid) != 2 {
		t.Errorf("traces: global %v, mid %d, want none and 2", c.Trace.Global, len(c.Trace.Mid))
	}
	uc := NewUsageCollector(c)
	uc.Start()
	for i := 0; i < 3; i++ {
		if _, err := c.RunControlCycle(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	global, leader, elapsed := uc.Stop()
	if elapsed <= 0 {
		t.Fatal("no window")
	}
	if global.TxMBps != 0 || global.CPUPercent != 0 {
		t.Errorf("coordinated global usage = %+v, want zero (no global controller)", global)
	}
	if leader.TxMBps <= 0 || leader.RxMBps <= 0 || leader.MemBytes == 0 {
		t.Errorf("per-leader usage = %+v, want nonzero", leader)
	}
}

func TestUsageCollector(t *testing.T) {
	c, err := Build(Config{Topology: Hierarchical, Stages: 12, Aggregators: 2, Net: fastNet()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	uc := NewUsageCollector(c)
	uc.Start()
	ctx := context.Background()
	for i := 0; i < 5; i++ {
		if _, err := c.Global.RunCycle(ctx); err != nil {
			t.Fatal(err)
		}
	}
	global, agg, elapsed := uc.Stop()
	if elapsed <= 0 {
		t.Fatal("elapsed <= 0")
	}
	if global.TxMBps <= 0 || global.RxMBps <= 0 {
		t.Errorf("global network = %g/%g MB/s, want > 0", global.TxMBps, global.RxMBps)
	}
	if agg.TxMBps <= 0 || agg.RxMBps <= 0 {
		t.Errorf("aggregator network = %g/%g MB/s, want > 0", agg.TxMBps, agg.RxMBps)
	}
	if global.MemBytes == 0 || agg.MemBytes == 0 {
		t.Error("memory footprints are zero")
	}
	if global.CPUPercent < 0 || agg.CPUPercent < 0 {
		t.Error("negative CPU percent")
	}
}

func TestUsageCollectorStopWithoutStart(t *testing.T) {
	c, err := Build(Config{Topology: Flat, Stages: 2, Net: fastNet()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	uc := NewUsageCollector(c)
	g, a, elapsed := uc.Stop()
	if elapsed != 0 || g.TxMBps != 0 || a.TxMBps != 0 {
		t.Error("Stop without Start returned data")
	}
}

func TestRoleUsageMemGB(t *testing.T) {
	u := RoleUsage{MemBytes: 2_500_000_000}
	if u.MemGB() != 2.5 {
		t.Errorf("MemGB = %g", u.MemGB())
	}
}

// TestDependabilityControllerRestart exercises the paper's §VI
// dependability observation: when the controller fails, stages keep
// enforcing their last rules (no storage unavailability), and a restarted
// controller re-adopts the fleet and resumes QoS control.
func TestDependabilityControllerRestart(t *testing.T) {
	c, err := Build(Config{Topology: Flat, Stages: 6, Jobs: 2, Net: fastNet()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	if _, err := c.Global.RunCycle(ctx); err != nil {
		t.Fatal(err)
	}

	// Snapshot the enforced rules, then kill the controller.
	rules := make([]wire.Rule, len(c.Stages))
	for i, v := range c.Stages {
		r, ok := v.LastRule()
		if !ok {
			t.Fatalf("stage %d unruled before failure", i)
		}
		rules[i] = r
	}
	c.Global.Close()

	// The data plane keeps enforcing the last rules: the stages' state is
	// untouched by the controller's death.
	for i, v := range c.Stages {
		r, ok := v.LastRule()
		if !ok || r != rules[i] {
			t.Errorf("stage %d lost its rule after controller failure", i)
		}
	}

	// A replacement controller adopts the same stages and resumes control.
	replacement, err := controller.StartGlobal(controller.GlobalConfig{
		Network:  c.Net.Host("global-2"),
		Capacity: wire.Rates{1200, 120}, // different capacity: rules must change
	})
	if err != nil {
		t.Fatal(err)
	}
	defer replacement.Close()
	for _, v := range c.Stages {
		if err := replacement.AddStage(ctx, v.Info()); err != nil {
			t.Fatalf("re-adopt: %v", err)
		}
	}
	if _, err := replacement.RunCycle(ctx); err != nil {
		t.Fatal(err)
	}
	for i, v := range c.Stages {
		r, _ := v.LastRule()
		if r == rules[i] {
			t.Errorf("stage %d rule unchanged after takeover", i)
		}
		if r.Limit[wire.ClassData] != 200 { // 1200 over 6 stages
			t.Errorf("stage %d new limit = %g, want 200", i, r.Limit[wire.ClassData])
		}
	}
}

// TestDependabilityAggregatorLoss: losing one aggregator must not stop the
// control plane — the remaining partitions keep being managed.
func TestDependabilityAggregatorLoss(t *testing.T) {
	c, err := Build(Config{Topology: Hierarchical, Stages: 12, Jobs: 2, Aggregators: 3, Net: fastNet()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	if _, err := c.Global.RunCycle(ctx); err != nil {
		t.Fatal(err)
	}

	c.Aggregators[1].Close()
	// Survivors keep receiving rules; the dead partition's stages keep
	// their last rules. Run enough cycles to trip the dead aggregator's
	// circuit breaker into quarantine.
	var before [12]uint64
	for i, v := range c.Stages {
		before[i], _ = v.Counters()
	}
	for i := 0; i < 4; i++ {
		c.Global.RunCycle(ctx)
	}
	if got := c.Global.NumChildren(); got != 3 {
		t.Errorf("children after aggregator loss = %d, want 3 (quarantined, not evicted)", got)
	}
	if got := c.Global.Stats().Quarantined; got != 1 {
		t.Errorf("quarantined after aggregator loss = %d, want 1", got)
	}
	for i, v := range c.Stages {
		after, _ := v.Counters()
		inDeadPartition := i >= 4 && i < 8 // aggregator 1's contiguous slice
		if inDeadPartition {
			if _, ok := v.LastRule(); !ok {
				t.Errorf("orphaned stage %d lost its rule", i)
			}
		} else if after <= before[i] {
			t.Errorf("surviving stage %d no longer collected", i)
		}
	}
}

// TestDependabilityNetworkPartition injects a network partition (rather
// than a clean shutdown): the aggregator's host becomes unreachable, its
// established connections are severed mid-flight, and the control plane
// must quarantine it and keep serving the reachable partitions.
func TestDependabilityNetworkPartition(t *testing.T) {
	c, err := Build(Config{
		Topology: Hierarchical, Stages: 9, Jobs: 3, Aggregators: 3,
		Net:         fastNet(),
		CallTimeout: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	if _, err := c.Global.RunCycle(ctx); err != nil {
		t.Fatal(err)
	}

	// Partition aggregator 1's host: dials fail and existing connections
	// die, including the global's connection to it and its connections to
	// its stages.
	c.Net.Host("agg-2").SetPartitioned(true)

	for i := 0; i < 4; i++ {
		if _, err := c.Global.RunCycle(ctx); err != nil {
			t.Fatalf("cycle during partition: %v", err)
		}
	}
	if got := c.Global.NumChildren(); got != 3 {
		t.Errorf("children after partition = %d, want 3 (quarantined, not evicted)", got)
	}
	if got := c.Global.Stats().Quarantined; got != 1 {
		t.Errorf("quarantined after partition = %d, want 1", got)
	}
	if c.Global.Stats().CallErrors == 0 {
		t.Error("no call errors recorded despite partition")
	}
	// Reachable stages keep being managed.
	before := make([]uint64, len(c.Stages))
	for i, v := range c.Stages {
		before[i], _ = v.Counters()
	}
	if _, err := c.Global.RunCycle(ctx); err != nil {
		t.Fatal(err)
	}
	for i, v := range c.Stages {
		after, _ := v.Counters()
		inPartition := i >= 3 && i < 6 // agg-2's contiguous slice
		if !inPartition && after <= before[i] {
			t.Errorf("reachable stage %d no longer collected", i)
		}
	}
}

func TestStressCyclesAccumulate(t *testing.T) {
	c, err := Build(Config{Topology: Flat, Stages: 10, Net: fastNet()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	c.Global.Run(ctx, 0)
	if c.Global.Recorder().Cycles() < 5 {
		t.Errorf("stress run completed %d cycles", c.Global.Recorder().Cycles())
	}
	s := c.Global.Recorder().Summarize()
	if s.Total.Mean <= 0 {
		t.Error("mean cycle latency is zero")
	}
}

// TestQuorumStandbys builds a flat cluster with a two-standby quorum and a
// durable data directory, kills the primary, and checks that exactly one
// standby wins the election, adopts the full stage fleet, and resumes
// control while the loser stays passive.
func TestQuorumStandbys(t *testing.T) {
	c, err := Build(Config{
		Topology: Flat, Stages: 8, Jobs: 2, Net: fastNet(),
		Standbys:     2,
		DataDir:      t.TempDir(),
		LeaseTimeout: 150 * time.Millisecond,
		SyncInterval: 25 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if len(c.Standbys) != 2 || c.Standby != c.Standbys[0] {
		t.Fatalf("standbys = %d, want 2 with Standby aliasing the first", len(c.Standbys))
	}

	ctx := context.Background()
	if _, err := c.Global.RunCycle(ctx); err != nil {
		t.Fatal(err)
	}

	runCtx, stopRun := context.WithCancel(ctx)
	defer stopRun()
	for _, sb := range c.Standbys {
		go sb.Run(runCtx, 25*time.Millisecond)
	}

	// Wait for the primary's state syncs to reach both standbys.
	deadline := time.Now().Add(5 * time.Second)
	for c.Standbys[0].Epoch() < 1 || c.Standbys[1].Epoch() < 1 {
		if time.Now().After(deadline) {
			t.Fatalf("standbys never mirrored the primary: epochs %d, %d",
				c.Standbys[0].Epoch(), c.Standbys[1].Epoch())
		}
		time.Sleep(5 * time.Millisecond)
	}

	c.Global.Close() // primary dies

	var winner, loser *controller.Global
	deadline = time.Now().Add(5 * time.Second)
	for winner == nil {
		if time.Now().After(deadline) {
			t.Fatal("no standby promoted after primary death")
		}
		switch {
		case c.Standbys[0].Promoted():
			winner, loser = c.Standbys[0], c.Standbys[1]
		case c.Standbys[1].Promoted():
			winner, loser = c.Standbys[1], c.Standbys[0]
		default:
			time.Sleep(5 * time.Millisecond)
		}
	}
	if winner.Epoch() <= 1 {
		t.Fatalf("winner epoch = %d, want > 1", winner.Epoch())
	}

	// The winner must adopt the whole fleet and resume ruling it. Its own
	// Run loop keeps cycling (a second concurrent RunCycle would violate
	// the reply-reuse contract), so observe the recorder instead.
	deadline = time.Now().Add(5 * time.Second)
	for winner.NumChildren() < len(c.Stages) {
		if time.Now().After(deadline) {
			t.Fatalf("winner adopted %d/%d stages", winner.NumChildren(), len(c.Stages))
		}
		time.Sleep(5 * time.Millisecond)
	}
	cyclesBefore := winner.Recorder().Cycles()
	deadline = time.Now().Add(5 * time.Second)
	for winner.Recorder().Cycles() <= cyclesBefore {
		if time.Now().After(deadline) {
			t.Fatal("winner adopted the fleet but is not running cycles")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The loser must not also promote (split brain).
	time.Sleep(200 * time.Millisecond)
	if loser.Promoted() {
		t.Fatal("both standbys promoted: split brain")
	}
}

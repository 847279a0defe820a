package cluster

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/dsrhaslab/sdscale/internal/transport/simnet"
	"github.com/dsrhaslab/sdscale/internal/wire"
	"github.com/dsrhaslab/sdscale/internal/workload"
)

// TestBuildRejectsMoreShardsThanStages: a deployment with more shards than
// stages would have a leader with no children, whose first cycle fails, so
// Build refuses it as config.Parse does.
func TestBuildRejectsMoreShardsThanStages(t *testing.T) {
	for _, topo := range []Topology{Flat, Coordinated} {
		c, err := Build(Config{Topology: topo, Stages: 2, Shards: 4, Net: fastNet()})
		if err == nil {
			c.Close()
			t.Fatalf("%v: Build with 2 stages and 4 shards succeeded", topo)
		}
		if !strings.Contains(err.Error(), "2 stages cannot populate 4 shards") {
			t.Errorf("%v: error %q does not name the stages and shards", topo, err)
		}
	}
}

func TestBuildSharded(t *testing.T) {
	c, err := Build(Config{Topology: Flat, Stages: 120, Jobs: 4, Shards: 4, Net: fastNet()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if c.Global != nil {
		t.Error("sharded cluster should not have a single Global")
	}
	if len(c.Globals) != 4 {
		t.Fatalf("shard leaders = %d, want 4", len(c.Globals))
	}
	if n := c.Router.NumShards(); n != 4 {
		t.Fatalf("router shards = %d, want 4", n)
	}
	total := 0
	for s, g := range c.Globals {
		n := g.NumChildren()
		if n == 0 {
			t.Errorf("shard %d owns no children", s)
		}
		total += n
	}
	if total != 120 {
		t.Fatalf("fleet children = %d, want 120", total)
	}
	if st := c.Router.Stats(); st.Children != 120 || st.Stages != 120 {
		t.Errorf("router stats children=%d stages=%d, want 120/120", st.Children, st.Stages)
	}

	if _, err := c.RunControlCycle(context.Background()); err != nil {
		t.Fatalf("cycle: %v", err)
	}
	for i, v := range c.Stages {
		if _, ok := v.LastRule(); !ok {
			t.Fatalf("stage %d got no rule", i)
		}
	}
	if c.Recorder().Cycles() != 1 {
		t.Errorf("recorded cycles = %d, want 1", c.Recorder().Cycles())
	}
}

// TestBuildShardedWithStandbys builds shards with a warm standby each,
// crashes shard 0's leader and promotes its standby: every later cycle
// must be led by the standby, whatever the shard count — a one-shard
// deployment is not a different system.
func TestBuildShardedWithStandbys(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			c, err := Build(Config{Topology: Flat, Stages: 40, Jobs: 4, Shards: shards, Standbys: 1, Net: fastNet()})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			ctx := context.Background()

			if len(c.Standbys) != shards {
				t.Fatalf("standbys = %d, want %d", len(c.Standbys), shards)
			}
			if _, err := c.RunControlCycle(ctx); err != nil {
				t.Fatalf("cycle: %v", err)
			}

			// Wait for a state sync to land: the standby mirrors the
			// leader's epoch with it.
			sb := c.Standbys[0]
			for deadline := time.Now().Add(5 * time.Second); sb.Epoch() < 1; {
				if time.Now().After(deadline) {
					t.Fatal("standby never mirrored its leader")
				}
				time.Sleep(2 * time.Millisecond)
			}
			host := ShardHost(0)
			if shards == 1 {
				host = "global"
			}
			c.Net.Schedule([]simnet.FaultEvent{{Host: host, Action: simnet.FaultCrash}}).Wait()
			if err := sb.Promote(ctx); err != nil {
				t.Fatalf("promote: %v", err)
			}

			const cycles = 5
			before := sb.Recorder().Cycles()
			for i := 0; i < cycles; i++ {
				if _, err := c.RunControlCycle(ctx); err != nil {
					t.Fatalf("cycle %d after failover: %v", i, err)
				}
			}
			if led := sb.Recorder().Cycles() - before; led != cycles {
				t.Errorf("the promoted standby led %d of %d cycles", led, cycles)
			}
			if n := c.Router.NumShards(); n != shards {
				t.Fatalf("router shards = %d, want %d", n, shards)
			}
			if c.Router.Group(0).Leader() != sb {
				t.Error("shard 0's leader is not the promoted standby")
			}
			if st := c.Router.Stats(); st.MaxEpoch < 2 || st.Children != 40 {
				t.Errorf("router stats epoch=%d children=%d, want >= 2 and 40", st.MaxEpoch, st.Children)
			}
		})
	}
}

func TestShardedCustomPlacement(t *testing.T) {
	c, err := Build(Config{
		Topology:  Flat,
		Stages:    10,
		Jobs:      2,
		Shards:    2,
		Placement: func(id uint64) int { return int(id % 2) },
		Net:       fastNet(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// IDs 1..10: five odd (shard 1), five even (shard 0).
	if n := c.Globals[0].NumChildren(); n != 5 {
		t.Errorf("shard 0 children = %d, want 5", n)
	}
	if n := c.Globals[1].NumChildren(); n != 5 {
		t.Errorf("shard 1 children = %d, want 5", n)
	}
}

func TestShardedValidation(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		want string
	}{
		{
			name: "negative shards",
			cfg:  Config{Stages: 4, Shards: -1},
			want: "Shards must be",
		},
		{
			name: "hierarchical",
			cfg:  Config{Topology: Hierarchical, Stages: 4, Shards: 2},
			want: "exclusive",
		},
		{
			name: "custom placement with standbys",
			cfg: Config{
				Stages:    4,
				Shards:    2,
				Standbys:  1,
				Placement: func(id uint64) int { return 0 },
			},
			want: "default consistent-hash placement",
		},
		{
			name: "placement out of range",
			cfg: Config{
				Stages:    4,
				Shards:    2,
				Placement: func(id uint64) int { return 7 },
			},
			want: "placement sent stage",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.cfg.Net = fastNet()
			c, err := Build(tc.cfg)
			if err == nil {
				c.Close()
				t.Fatal("Build succeeded, want error")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestShardedMoveAndRebalance(t *testing.T) {
	c, err := Build(Config{Topology: Flat, Stages: 20, Jobs: 4, Shards: 2, Net: fastNet()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()

	const child = uint64(1)
	home := c.Router.Place(child)
	away := 1 - home

	if err := c.Router.Move(ctx, child, away); err != nil {
		t.Fatalf("move: %v", err)
	}
	if got, g := c.Router.Route(child); got != away || g != c.Globals[away] {
		t.Fatalf("after move, child routed to shard %d, want %d", got, away)
	}
	// The destination fenced the source by raising its epoch.
	if c.Globals[away].Epoch() <= c.Globals[home].Epoch() {
		t.Errorf("destination epoch %d not above source epoch %d",
			c.Globals[away].Epoch(), c.Globals[home].Epoch())
	}

	// A cycle still reaches every stage, including the moved one.
	if _, err := c.RunControlCycle(ctx); err != nil {
		t.Fatalf("cycle: %v", err)
	}

	moved, err := c.Router.Rebalance(ctx)
	if err != nil {
		t.Fatalf("rebalance: %v", err)
	}
	if moved != 1 {
		t.Errorf("rebalance moved %d children, want 1", moved)
	}
	if got, _ := c.Router.Route(child); got != home {
		t.Fatalf("after rebalance, child on shard %d, want %d", got, home)
	}
	if st := c.Router.Stats(); st.Moves != 2 || st.Rebalances != 1 {
		t.Errorf("stats moves=%d rebalances=%d, want 2/1", st.Moves, st.Rebalances)
	}
}

func TestShardedEnforceUniform(t *testing.T) {
	c, err := Build(Config{Topology: Flat, Stages: 20, Jobs: 4, Shards: 2, Net: fastNet()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// 20 stages over 4 jobs: 5 stages serve job 1.
	applied, err := c.Router.EnforceUniform(context.Background(), 1, wire.ActionSetLimit, wire.Rates{100, 10})
	if err != nil {
		t.Fatalf("enforce: %v", err)
	}
	if applied != 5 {
		t.Errorf("applied = %d, want 5", applied)
	}
}

// TestOneShardRoundAllocatesAsItsLeader: a one-shard deployment's routed
// round is its leader's cycle, so a quiesced RunControlCycle allocates no
// more than the leader's own RunCycle — the routing tier adds nothing to
// the quiesced floor BenchmarkFlatCycle gates.
func TestOneShardRoundAllocatesAsItsLeader(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	// pinned keeps every wall-clock timer from firing, so nothing dirties
	// the fleet once the rules have converged.
	const pinned = time.Hour
	c, err := Build(Config{
		Topology: Flat, Stages: 50, Incremental: true, DeltaEnforcement: true,
		Workload:     workload.Constant{Rates: wire.Rates{1000, 100}},
		PushInterval: pinned, PushFloor: pinned, IncrementalFloor: pinned, StaleAfter: pinned,
		Net: fastNet(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	for i := 0; i < 5; i++ {
		if _, err := c.RunControlCycle(ctx); err != nil {
			t.Fatal(err)
		}
	}
	leader := testing.AllocsPerRun(100, func() {
		if _, err := c.Global.RunCycle(ctx); err != nil {
			t.Error(err)
		}
	})
	routed := testing.AllocsPerRun(100, func() {
		if _, err := c.RunControlCycle(ctx); err != nil {
			t.Error(err)
		}
	})
	if routed > leader {
		t.Fatalf("a quiesced one-shard round allocates %.1f times, its leader's cycle %.1f", routed, leader)
	}
}

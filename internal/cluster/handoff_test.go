package cluster

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/dsrhaslab/sdscale/internal/stage"
	"github.com/dsrhaslab/sdscale/internal/wire"
	"github.com/dsrhaslab/sdscale/internal/workload"
)

// TestShardedDuplicateRegisterAfterMove pins the handoff's registration
// guard: a stage Register that lags a completed move — a retry the child
// queued before the destination adopted it — must not resurrect the child
// on its old shard. Without the guard the old shard would re-add the child,
// call it at its stale epoch, get fenced, and step down entirely.
func TestShardedDuplicateRegisterAfterMove(t *testing.T) {
	c, err := Build(Config{Topology: Flat, Stages: 20, Jobs: 4, Shards: 2, Net: fastNet()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()

	// Move one child away from its placement shard.
	const childID = 1
	src, _ := c.Router.Route(childID)
	dst := 1 - src
	if err := c.Router.Move(ctx, childID, dst); err != nil {
		t.Fatal(err)
	}
	before := c.Globals[src].NumChildren()

	// The lagging duplicate Register lands on the old shard and must be
	// turned away, naming the owner.
	_, err = stage.RegisterAny(ctx, c.Net.Host("stage-1"), []string{c.Globals[src].Addr()},
		c.Stages[childID-1].Info(), stage.RegisterOptions{Attempts: 1})
	if err == nil {
		t.Fatal("duplicate register on the old shard succeeded")
	}
	if !strings.Contains(err.Error(), "belongs to shard") {
		t.Fatalf("rejection does not name the owning shard: %v", err)
	}
	if got := c.Globals[src].NumChildren(); got != before {
		t.Fatalf("old shard re-adopted the moved child: %d -> %d children", before, got)
	}

	// Ownership is undisturbed and the old shard still leads its own
	// children: the routed cycle reaches the whole fleet.
	if s, _ := c.Router.Route(childID); s != dst {
		t.Fatalf("Route(%d) = shard %d, want %d", childID, s, dst)
	}
	if _, err := c.RunControlCycle(ctx); err != nil {
		t.Fatalf("cycle after rejected duplicate register: %v", err)
	}

	// A Register from a child this shard does own still works: the guard
	// blocks foreign children, not re-registration.
	ownID := uint64(0)
	for _, id := range c.Globals[src].ChildIDs() {
		ownID = id
		break
	}
	if ownID == 0 {
		t.Fatal("old shard has no children left")
	}
	if _, err := stage.RegisterAny(ctx, c.Net.Host(fmt.Sprintf("stage-%d", ownID)),
		[]string{c.Globals[src].Addr()}, c.Stages[ownID-1].Info(),
		stage.RegisterOptions{Attempts: 1}); err != nil {
		t.Fatalf("legitimate re-registration rejected: %v", err)
	}
}

// TestShardedMoveFailedAdoptionGivesChildBack checks a handoff whose
// destination cannot dial the child. The source lets the child go before
// the destination adopts it, so the failed adoption must give the child
// back, with a source epoch its fence admits: the move reports the error,
// the source owns the child again, and its cycles still reach it without a
// deposition.
func TestShardedMoveFailedAdoptionGivesChildBack(t *testing.T) {
	c, err := Build(Config{Topology: Flat, Stages: 20, Jobs: 4, Shards: 2, Net: fastNet()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()

	const childID = 1
	src, _ := c.Router.Route(childID)
	dst := 1 - src
	before := c.Globals[src].NumChildren()
	c.Net.Host(ShardHost(dst)).SetPartitioned(true)
	err = c.Router.Move(ctx, childID, dst)
	c.Net.Host(ShardHost(dst)).SetPartitioned(false)
	if err == nil {
		t.Fatal("move to a shard that cannot dial the child succeeded")
	}

	if s, _ := c.Router.Route(childID); s != src {
		t.Fatalf("Route(%d) = shard %d after the failed move, want the source %d", childID, s, src)
	}
	if got := c.Globals[src].NumChildren(); got != before {
		t.Fatalf("source has %d children after the failed move, want %d", got, before)
	}
	if se, de := c.Globals[src].Epoch(), c.Globals[dst].Epoch(); se < de {
		t.Fatalf("source epoch %d below the destination's %d: the child's fence may refuse it", se, de)
	}
	for i := 0; i < 2; i++ {
		if _, err := c.RunControlCycle(ctx); err != nil {
			t.Fatalf("cycle after the failed move: %v", err)
		}
	}
	if c.Globals[src].Deposed() {
		t.Fatal("source deposed after taking the child back")
	}
}

// TestShardedRebalanceRaceWithCycles stress-tests concurrent handoffs
// against quiesced incremental cycles under -race: moves ping-pong children
// off placement while the router runs whole-deployment cycles, then a final
// rebalance converges everything home. No child may be lost, double-owned,
// or left without its rules.
func TestShardedRebalanceRaceWithCycles(t *testing.T) {
	const stages = 60
	c, err := Build(Config{
		Topology:         Flat,
		Stages:           stages,
		Jobs:             4,
		Shards:           4,
		Net:              fastNet(),
		DeltaEnforcement: true,
		Incremental:      true,
		IncrementalFloor: time.Hour,
		PushFloor:        time.Hour,
		Workload:         workload.Constant{Rates: wire.Rates{1000, 100}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()

	// Converge and quiesce: rules settle, pushes drain, the incremental
	// cycles go quiet — so concurrent cycles and moves exercise the
	// membership bookkeeping, not enforce/fence races.
	for i := 0; i < 3; i++ {
		if _, err := c.RunControlCycle(ctx); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(150 * time.Millisecond)
	if _, err := c.RunControlCycle(ctx); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	var cycleErr, moveErr error
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 30; i++ {
			if _, err := c.RunControlCycle(ctx); err != nil {
				cycleErr = err
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for round := 0; round < 5; round++ {
			for id := uint64(1); id <= 8; id++ {
				dst := (c.Router.Place(id) + 1) % c.Router.NumShards()
				if err := c.Router.Move(ctx, id, dst); err != nil {
					moveErr = err
					return
				}
			}
			if _, err := c.Router.Rebalance(ctx); err != nil {
				moveErr = err
				return
			}
		}
	}()
	wg.Wait()
	if cycleErr != nil {
		t.Fatalf("concurrent cycle: %v", cycleErr)
	}
	if moveErr != nil {
		t.Fatalf("concurrent move/rebalance: %v", moveErr)
	}

	// Converged end state: every child owned exactly once, on its
	// placement shard, and a routed cycle still reaches the whole fleet.
	if _, err := c.Router.Rebalance(ctx); err != nil {
		t.Fatal(err)
	}
	total := 0
	seen := make(map[uint64]int)
	for s, g := range c.Globals {
		for _, id := range g.ChildIDs() {
			if prev, dup := seen[id]; dup {
				t.Fatalf("child %d owned by both shard %d and shard %d", id, prev, s)
			}
			seen[id] = s
			if want := c.Router.Place(id); want != s {
				t.Errorf("child %d on shard %d after rebalance, placement says %d", id, s, want)
			}
		}
		total += g.NumChildren()
	}
	if total != stages {
		t.Fatalf("fleet children = %d after churn, want %d", total, stages)
	}
	if _, err := c.RunControlCycle(ctx); err != nil {
		t.Fatalf("cycle after churn: %v", err)
	}
}

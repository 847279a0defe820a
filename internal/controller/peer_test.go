package controller

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"github.com/dsrhaslab/sdscale/internal/rpc"
	"github.com/dsrhaslab/sdscale/internal/stage"
	"github.com/dsrhaslab/sdscale/internal/transport/simnet"
	"github.com/dsrhaslab/sdscale/internal/wire"
	"github.com/dsrhaslab/sdscale/internal/workload"
)

// buildPeers assembles nPeers coordinated controllers — flat Globals with
// fellows — over the given stages, partitioned round-robin, in a full mesh.
func buildPeers(t *testing.T, n *simnet.Net, stages []*stage.Virtual, nPeers int, capacity wire.Rates) []*Global {
	t.Helper()
	ctx := context.Background()
	peers := make([]*Global, nPeers)
	for i := range peers {
		p, err := StartGlobal(GlobalConfig{
			ID:       uint64(i + 1),
			Network:  n.Host(fmt.Sprintf("peer-%d", i+1)),
			Capacity: capacity,
		})
		if err != nil {
			t.Fatalf("start peer %d: %v", i, err)
		}
		peers[i] = p
	}
	t.Cleanup(func() {
		for _, p := range peers {
			p.Close()
		}
	})
	for i, v := range stages {
		if err := peers[i%nPeers].AddStage(ctx, v.Info()); err != nil {
			t.Fatalf("peer AddStage: %v", err)
		}
	}
	for i, p := range peers {
		for j, q := range peers {
			if i == j {
				continue
			}
			if err := p.AddPeer(ctx, q.ID(), q.Addr()); err != nil {
				t.Fatalf("AddPeer: %v", err)
			}
		}
	}
	return peers
}

func TestCoordinatedPeersReachGlobalAllocation(t *testing.T) {
	net := fastNet()
	// 8 stages, 2 jobs, uniform demand; capacity saturated 2:1.
	stages := startStages(t, net, 8, 2, wire.Rates{1000, 100})
	peers := buildPeers(t, net, stages, 2, wire.Rates{4000, 400})
	ctx := context.Background()

	// Two rounds: the first exchanges aggregates, the second computes with
	// full global visibility at both peers.
	for round := 0; round < 2; round++ {
		for _, p := range peers {
			if _, err := p.RunCycle(ctx); err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
		}
	}

	// With global visibility each of the 8 stages gets 4000/8 = 500,
	// exactly what a single flat controller would compute.
	for i, v := range stages {
		rule, ok := v.LastRule()
		if !ok {
			t.Fatalf("stage %d got no rule", i)
		}
		if math.Abs(rule.Limit[wire.ClassData]-500) > 1e-6 {
			t.Errorf("stage %d limit = %g, want 500", i, rule.Limit[wire.ClassData])
		}
	}
	if peers[0].NumPeers() != 1 || peers[0].NumStages() != 4 {
		t.Errorf("peer state = %d peers / %d stages", peers[0].NumPeers(), peers[0].NumStages())
	}
}

func TestCoordinatedFirstCycleIsLocalOnly(t *testing.T) {
	net := fastNet()
	stages := startStages(t, net, 4, 1, wire.Rates{1000, 0})
	peers := buildPeers(t, net, stages, 2, wire.Rates{2000, 0})
	ctx := context.Background()

	// Only peer 0 runs: it has no view of peer 1's stages yet, so it
	// allocates the full capacity to the 2 stages it sees.
	if _, err := peers[0].RunCycle(ctx); err != nil {
		t.Fatal(err)
	}
	r, ok := stages[0].LastRule() // stage 0 belongs to peer 0
	if !ok {
		t.Fatal("no rule")
	}
	if math.Abs(r.Limit[wire.ClassData]-1000) > 1e-6 {
		t.Errorf("local-only limit = %g, want 1000 (2000 over 2 visible stages)", r.Limit[wire.ClassData])
	}

	// After peer 1 also runs (sharing its aggregates), peer 0's next
	// cycle sees all 4 stages and halves the limits.
	if _, err := peers[1].RunCycle(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := peers[0].RunCycle(ctx); err != nil {
		t.Fatal(err)
	}
	r, _ = stages[0].LastRule()
	if math.Abs(r.Limit[wire.ClassData]-500) > 1e-6 {
		t.Errorf("global-view limit = %g, want 500", r.Limit[wire.ClassData])
	}
}

func TestCoordinatedStaleAggregatesAgeOut(t *testing.T) {
	net := fastNet()
	stages := startStages(t, net, 4, 1, wire.Rates{1000, 0})
	ctx := context.Background()

	peers := make([]*Global, 2)
	for i := range peers {
		p, err := StartGlobal(GlobalConfig{
			ID:         uint64(i + 1),
			Network:    net.Host(fmt.Sprintf("peer-%d", i+1)),
			Capacity:   wire.Rates{2000, 0},
			StaleAfter: 100 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		peers[i] = p
	}
	for i, v := range stages {
		if err := peers[i%2].AddStage(ctx, v.Info()); err != nil {
			t.Fatal(err)
		}
	}
	for i, p := range peers {
		p.AddPeer(ctx, peers[1-i].ID(), peers[1-i].Addr())
	}

	// Exchange once: both see 4 stages, per-stage limit 500.
	peers[0].RunCycle(ctx)
	peers[1].RunCycle(ctx)
	peers[0].RunCycle(ctx)
	r, _ := stages[0].LastRule()
	if math.Abs(r.Limit[wire.ClassData]-500) > 1e-6 {
		t.Fatalf("pre-failure limit = %g, want 500", r.Limit[wire.ClassData])
	}

	// Peer 1 dies; after StaleAfter its demand stops counting and peer 0
	// reallocates the full capacity to its own stages.
	peers[1].Close()
	time.Sleep(150 * time.Millisecond)
	peers[0].RunCycle(ctx)
	r, _ = stages[0].LastRule()
	if math.Abs(r.Limit[wire.ClassData]-1000) > 1e-6 {
		t.Errorf("post-failure limit = %g, want 1000", r.Limit[wire.ClassData])
	}
}

// TestCoordinatedIncrementalNeverIdles: a Global with fellows never takes the
// flat cycle's incremental short-circuit. The fleet is quiet — constant
// demand, no pushes, so nothing is ever dirty and a stage is re-collected
// only when its cache nears StaleAfter — yet every cycle must push a
// PeerExchange, and over a run longer than StaleAfter neither controller's
// view of the other may age out: every stage keeps the global-view limit.
func TestCoordinatedIncrementalNeverIdles(t *testing.T) {
	const (
		staleAfter = 300 * time.Millisecond
		interval   = 30 * time.Millisecond
		rounds     = 14 // rounds × interval > staleAfter
	)
	net := fastNet()
	stages := startStages(t, net, 4, 1, wire.Rates{1000, 0})
	ctx := context.Background()
	peers := make([]*Global, 2)
	for i := range peers {
		p, err := StartGlobal(GlobalConfig{
			ID:               uint64(i + 1),
			Network:          net.Host(fmt.Sprintf("peer-%d", i+1)),
			Capacity:         wire.Rates{2000, 0},
			Incremental:      true,
			IncrementalFloor: staleAfter - 50*time.Millisecond,
			StaleAfter:       staleAfter,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { p.Close() })
		peers[i] = p
	}
	for i, v := range stages {
		if err := peers[i%2].AddStage(ctx, v.Info()); err != nil {
			t.Fatal(err)
		}
	}
	for i, p := range peers {
		if err := p.AddPeer(ctx, peers[1-i].ID(), peers[1-i].Addr()); err != nil {
			t.Fatal(err)
		}
	}

	for round := uint64(1); round <= rounds; round++ {
		for i, p := range peers {
			if _, err := p.RunCycle(ctx); err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
			q := peers[1-i]
			q.mu.Lock()
			got := q.remote[p.ID()].cycle
			q.mu.Unlock()
			if got != round {
				t.Fatalf("round %d: controller %d holds controller %d's aggregates of cycle %d, want a PeerExchange every cycle",
					round, q.ID(), p.ID(), got)
			}
		}
		if round > 1 { // round 1: controller 1 computed before controller 2's first push
			for i, v := range stages {
				if r, ok := v.LastRule(); !ok || math.Abs(r.Limit[wire.ClassData]-500) > 1e-6 {
					t.Fatalf("round %d: stage %d rule %+v (%v), want the 500 global-view limit: a fellow's view aged out",
						round, i, r.Limit, ok)
				}
			}
		}
		time.Sleep(interval)
	}
	if st := peers[0].Stats(); st.Peers != 1 {
		t.Errorf("Stats().Peers = %d, want 1", st.Peers)
	}
}

func TestPeerDynamicRegistration(t *testing.T) {
	net := fastNet()
	p, err := StartGlobal(GlobalConfig{ID: 1, Network: net.Host("peer-1"), Capacity: wire.Rates{100, 10}})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	v, err := stage.StartVirtual(stage.Config{ID: 1, JobID: 1, Weight: 1, Network: net.Host("stage-1")})
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	if err := stage.Register(context.Background(), net.Host("stage-1"), p.Addr(), v.Info()); err != nil {
		t.Fatalf("Register: %v", err)
	}
	if p.NumStages() != 1 {
		t.Errorf("stages = %d", p.NumStages())
	}
	if _, err := p.RunCycle(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestPeerStageListQuery(t *testing.T) {
	net := fastNet()
	stages := startStages(t, net, 3, 1, wire.Rates{1, 1})
	peers := buildPeers(t, net, stages, 1, wire.Rates{100, 10})

	cli, err := rpc.Dial(context.Background(), net.Host("prober"), peers[0].Addr(), rpc.DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	resp, err := cli.Call(context.Background(), &wire.StageList{})
	if err != nil {
		t.Fatal(err)
	}
	list := resp.(*wire.StageListReply)
	if len(list.Stages) != 3 {
		t.Fatalf("stage list = %d entries", len(list.Stages))
	}
	if list.Stages[0].Addr == "" {
		t.Error("stage entry missing address")
	}
}

func TestPeerRejectsSelfAndDuplicates(t *testing.T) {
	net := fastNet()
	p, err := StartGlobal(GlobalConfig{ID: 1, Network: net.Host("peer-1"), Capacity: wire.Rates{1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	q, err := StartGlobal(GlobalConfig{ID: 2, Network: net.Host("peer-2"), Capacity: wire.Rates{1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()

	ctx := context.Background()
	if err := p.AddPeer(ctx, 1, p.Addr()); err == nil {
		t.Error("self-peering accepted")
	}
	if err := p.AddPeer(ctx, 2, q.Addr()); err != nil {
		t.Fatal(err)
	}
	if err := p.AddPeer(ctx, 2, q.Addr()); err == nil {
		t.Error("duplicate peer accepted")
	}
}

func TestPeerNoStages(t *testing.T) {
	net := fastNet()
	p, err := StartGlobal(GlobalConfig{ID: 1, Network: net.Host("peer-1"), Capacity: wire.Rates{1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if _, err := p.RunCycle(context.Background()); !errors.Is(err, ErrNoChildren) {
		t.Fatalf("RunCycle = %v, want ErrNoChildren", err)
	}
}

func TestPeerRunLoop(t *testing.T) {
	net := fastNet()
	stages := startStages(t, net, 4, 2, workloadRates())
	peers := buildPeers(t, net, stages, 2, wire.Rates{2000, 200})

	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	done := make(chan struct{})
	go func() {
		peers[1].Run(ctx, 20*time.Millisecond)
		close(done)
	}()
	peers[0].Run(ctx, 20*time.Millisecond)
	<-done

	if peers[0].Recorder().Cycles() < 3 || peers[1].Recorder().Cycles() < 3 {
		t.Errorf("cycles = %d / %d", peers[0].Recorder().Cycles(), peers[1].Recorder().Cycles())
	}
	for i, v := range stages {
		if _, ok := v.LastRule(); !ok {
			t.Errorf("stage %d unruled after run loop", i)
		}
	}
	if peers[0].MemoryFootprint() == 0 {
		t.Error("zero memory footprint")
	}
}

func workloadRates() wire.Rates { return workload.Stress().Demand(0) }

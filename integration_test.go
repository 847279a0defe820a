package sdscale_test

import (
	"context"
	"fmt"
	"math"
	"testing"
	"time"

	"github.com/dsrhaslab/sdscale"
	"github.com/dsrhaslab/sdscale/internal/controlalg"
	"github.com/dsrhaslab/sdscale/internal/controller"
	"github.com/dsrhaslab/sdscale/internal/stage"
	"github.com/dsrhaslab/sdscale/internal/wire"
	"github.com/dsrhaslab/sdscale/internal/workload"
)

// TestTCPFlatControlPlane runs the whole stack over real TCP loopback:
// stages register dynamically with the controller, cycles run, and rules
// arrive — the multi-host deployment path cmd/sdsctl uses.
func TestTCPFlatControlPlane(t *testing.T) {
	net := sdscale.NewTCPNet()
	ctx := context.Background()

	g, err := sdscale.StartGlobal(sdscale.GlobalConfig{
		Network:    net,
		ListenAddr: "127.0.0.1:0",
		Capacity:   sdscale.Rates{1000, 100},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	const nStages = 8
	var stages []*sdscale.VirtualStage
	for i := 0; i < nStages; i++ {
		st, err := sdscale.StartVirtualStage(sdscale.StageConfig{
			ID:         uint64(i + 1),
			JobID:      uint64(i%2 + 1),
			Weight:     1,
			Generator:  sdscale.ConstantWorkload{Rates: sdscale.Rates{1000, 100}},
			Network:    net,
			ListenAddr: "127.0.0.1:0",
		})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		stages = append(stages, st)
		if err := sdscale.RegisterStage(ctx, net, g.Addr(), st.Info()); err != nil {
			t.Fatalf("register stage %d: %v", i, err)
		}
	}
	if g.NumStages() != nStages {
		t.Fatalf("registered stages = %d, want %d", g.NumStages(), nStages)
	}

	b, err := g.RunCycle(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if b.Total <= 0 {
		t.Error("zero cycle latency over TCP")
	}
	for i, st := range stages {
		rule, ok := st.LastRule()
		if !ok {
			t.Fatalf("stage %d got no rule over TCP", i)
		}
		if math.Abs(rule.Limit[sdscale.ClassData]-125) > 1e-6 {
			t.Errorf("stage %d limit = %g, want 125", i, rule.Limit[sdscale.ClassData])
		}
	}
}

// TestTCPHierarchy runs global -> aggregator -> stages over TCP with
// AttachAggregator's stage discovery.
func TestTCPHierarchy(t *testing.T) {
	net := sdscale.NewTCPNet()
	ctx := context.Background()

	agg, err := sdscale.StartAggregator(sdscale.AggregatorConfig{
		ID:         9,
		Network:    net,
		ListenAddr: "127.0.0.1:0",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer agg.Close()

	var stages []*sdscale.VirtualStage
	for i := 0; i < 4; i++ {
		st, err := sdscale.StartVirtualStage(sdscale.StageConfig{
			ID: uint64(i + 1), JobID: 1, Weight: 1,
			Network:    net,
			ListenAddr: "127.0.0.1:0",
		})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		stages = append(stages, st)
		if err := sdscale.RegisterStage(ctx, net, agg.Addr(), st.Info()); err != nil {
			t.Fatal(err)
		}
	}

	g, err := sdscale.StartGlobal(sdscale.GlobalConfig{
		Network:  net,
		Capacity: sdscale.Rates{400, 40},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if err := g.AttachAggregator(ctx, agg.ID(), agg.Addr()); err != nil {
		t.Fatalf("AttachAggregator over TCP: %v", err)
	}
	if g.NumStages() != 4 {
		t.Fatalf("discovered stages = %d", g.NumStages())
	}
	if _, err := g.RunCycle(ctx); err != nil {
		t.Fatal(err)
	}
	for i, st := range stages {
		rule, ok := st.LastRule()
		if !ok || math.Abs(rule.Limit[sdscale.ClassData]-100) > 1e-6 {
			t.Errorf("stage %d rule = %+v/%v, want 100 data IOPS", i, rule, ok)
		}
	}
}

// TestTCPCoordinatedPeersAutoMesh runs two coordinated peers — Globals with
// fellows — over TCP with one-sided configuration; auto-meshing must make
// visibility symmetric.
func TestTCPCoordinatedPeersAutoMesh(t *testing.T) {
	net := sdscale.NewTCPNet()
	ctx := context.Background()

	mkPeer := func(id uint64) *sdscale.Global {
		p, err := sdscale.StartGlobal(sdscale.GlobalConfig{
			ID:         id,
			Network:    net,
			ListenAddr: "127.0.0.1:0",
			Capacity:   sdscale.Rates{800, 80},
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { p.Close() })
		return p
	}
	p1 := mkPeer(1)
	p2 := mkPeer(2)
	// One-sided: only p2 knows p1.
	if err := p2.AddPeer(ctx, 1, p1.Addr()); err != nil {
		t.Fatal(err)
	}

	var stages []*sdscale.VirtualStage
	for i := 0; i < 4; i++ {
		st, err := sdscale.StartVirtualStage(sdscale.StageConfig{
			ID: uint64(i + 1), JobID: 1, Weight: 1,
			Generator:  workload.Constant{Rates: wire.Rates{1000, 100}},
			Network:    net,
			ListenAddr: "127.0.0.1:0",
		})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		stages = append(stages, st)
	}
	parent := []*sdscale.Global{p1, p1, p2, p2}
	for i, st := range stages {
		if err := parent[i].AddStage(ctx, st.Info()); err != nil {
			t.Fatal(err)
		}
	}

	// p2's first cycle pushes its aggregates to p1 and triggers p1's
	// auto-mesh dial-back; subsequent cycles give both a global view.
	for round := 0; round < 3; round++ {
		if _, err := p2.RunCycle(ctx); err != nil {
			t.Fatal(err)
		}
		if _, err := p1.RunCycle(ctx); err != nil {
			t.Fatal(err)
		}
	}
	waitForCondition(t, 5*time.Second, func() bool { return p1.NumPeers() == 1 })

	// Global view: 4 stages, capacity 800 -> 200 each, at both partitions.
	p2.RunCycle(ctx)
	p1.RunCycle(ctx)
	for i, st := range stages {
		rule, ok := st.LastRule()
		if !ok {
			t.Fatalf("stage %d unruled", i)
		}
		if math.Abs(rule.Limit[sdscale.ClassData]-200) > 1e-6 {
			t.Errorf("stage %d limit = %g, want 200 (global view)", i, rule.Limit[sdscale.ClassData])
		}
	}
}

// TestEndToEndAllocationInvariants is a cluster-level property test: for
// random job demands and capacities, after two control cycles the enforced
// per-stage limits must be work conserving (sum to capacity) and never
// falsely allocated (stage limit <= stage demand under saturation).
func TestEndToEndAllocationInvariants(t *testing.T) {
	for trial := 0; trial < 5; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial=%d", trial), func(t *testing.T) {
			nStages := 4 + trial*3
			capacity := wire.Rates{float64(1000 + trial*700), float64(100 * (trial + 1))}
			net := sdscale.NewSimNet(sdscale.SimNetConfig{PropDelay: -1})
			ctx := context.Background()

			var stages []*stage.Virtual
			var totalDemand wire.Rates
			for i := 0; i < nStages; i++ {
				demand := wire.Rates{float64(300 + 137*((i*7+trial)%9)), float64(20 + 13*((i*3+trial)%5))}
				totalDemand = totalDemand.Add(demand)
				st, err := stage.StartVirtual(stage.Config{
					ID:        uint64(i + 1),
					JobID:     uint64(i%3 + 1),
					Weight:    float64(i%2 + 1),
					Generator: workload.Constant{Rates: demand},
					Network:   net.Host(fmt.Sprintf("stage-%d", i+1)),
				})
				if err != nil {
					t.Fatal(err)
				}
				defer st.Close()
				stages = append(stages, st)
			}

			g, err := controller.StartGlobal(controller.GlobalConfig{
				Network:   net.Host("global"),
				Algorithm: controlalg.PSFA{},
				Capacity:  capacity,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer g.Close()
			for _, st := range stages {
				if err := g.AddStage(ctx, st.Info()); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 2; i++ {
				if _, err := g.RunCycle(ctx); err != nil {
					t.Fatal(err)
				}
			}

			var totalLimit wire.Rates
			for _, st := range stages {
				rule, ok := st.LastRule()
				if !ok {
					t.Fatal("unruled stage")
				}
				totalLimit = totalLimit.Add(rule.Limit)
			}
			for c := 0; c < int(wire.NumClasses); c++ {
				// Work conservation: full capacity distributed (PSFA
				// always assigns exactly the capacity when demand exists).
				if math.Abs(totalLimit[c]-capacity[c]) > 1e-6*capacity[c] {
					t.Errorf("class %d: limits sum to %g, capacity %g (demand %g)",
						c, totalLimit[c], capacity[c], totalDemand[c])
				}
			}
		})
	}
}

func waitForCondition(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

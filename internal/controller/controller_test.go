package controller

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"github.com/dsrhaslab/sdscale/internal/controlalg"
	"github.com/dsrhaslab/sdscale/internal/monitor"
	"github.com/dsrhaslab/sdscale/internal/rpc"
	"github.com/dsrhaslab/sdscale/internal/stage"
	"github.com/dsrhaslab/sdscale/internal/transport"
	"github.com/dsrhaslab/sdscale/internal/transport/simnet"
	"github.com/dsrhaslab/sdscale/internal/wire"
	"github.com/dsrhaslab/sdscale/internal/workload"
)

func fastNet() *simnet.Net { return simnet.New(simnet.Config{PropDelay: -1}) }

// startStages launches n virtual stages spread over nJobs jobs with the
// given per-stage demand.
func startStages(t *testing.T, n *simnet.Net, count, nJobs int, demand wire.Rates) []*stage.Virtual {
	t.Helper()
	stages := make([]*stage.Virtual, count)
	for i := range stages {
		v, err := stage.StartVirtual(stage.Config{
			ID:        uint64(i + 1),
			JobID:     uint64(i%nJobs + 1),
			Weight:    1,
			Generator: workload.Constant{Rates: demand},
			Network:   n.Host(fmt.Sprintf("stage-%d", i+1)),
		})
		if err != nil {
			t.Fatalf("start stage %d: %v", i, err)
		}
		stages[i] = v
	}
	t.Cleanup(func() {
		for _, v := range stages {
			v.Close()
		}
	})
	return stages
}

// buildFlat wires a global controller directly to the stages.
func buildFlat(t *testing.T, n *simnet.Net, stages []*stage.Virtual, cfg GlobalConfig) *Global {
	t.Helper()
	cfg.Network = n.Host("global")
	g, err := StartGlobal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { g.Close() })
	ctx := context.Background()
	for _, v := range stages {
		if err := g.AddStage(ctx, v.Info()); err != nil {
			t.Fatalf("AddStage: %v", err)
		}
	}
	return g
}

// buildHierarchy wires global -> aggregators -> stages, partitioning stages
// evenly.
func buildHierarchy(t *testing.T, n *simnet.Net, stages []*stage.Virtual, nAggs int, cfg GlobalConfig) (*Global, []*Aggregator) {
	t.Helper()
	ctx := context.Background()
	aggs := make([]*Aggregator, nAggs)
	for i := range aggs {
		a, err := StartAggregator(AggregatorConfig{
			ID:      uint64(1000 + i),
			Network: n.Host(fmt.Sprintf("agg-%d", i)),
		})
		if err != nil {
			t.Fatalf("start aggregator %d: %v", i, err)
		}
		aggs[i] = a
	}
	t.Cleanup(func() {
		for _, a := range aggs {
			a.Close()
		}
	})
	for i, v := range stages {
		if err := aggs[i%nAggs].AddStage(ctx, v.Info()); err != nil {
			t.Fatalf("agg AddStage: %v", err)
		}
	}

	cfg.Network = n.Host("global")
	g, err := StartGlobal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { g.Close() })
	for _, a := range aggs {
		if err := g.AddAggregator(ctx, a.ID(), a.Addr(), a.Stages()); err != nil {
			t.Fatalf("AddAggregator: %v", err)
		}
	}
	return g, aggs
}

func TestFlatCycleEndToEnd(t *testing.T) {
	n := fastNet()
	stages := startStages(t, n, 8, 2, wire.Rates{1000, 100})
	g := buildFlat(t, n, stages, GlobalConfig{Capacity: wire.Rates{4000, 400}})

	b, err := g.RunCycle(context.Background())
	if err != nil {
		t.Fatalf("RunCycle: %v", err)
	}
	if b.Total <= 0 || b.Collect <= 0 || b.Enforce <= 0 {
		t.Errorf("breakdown = %+v, want positive phases", b)
	}

	// Every stage must have received a rule; total demand 8000 > cap 4000,
	// so each stage's limit is 4000/8 = 500 data ops.
	for i, v := range stages {
		rule, ok := v.LastRule()
		if !ok {
			t.Fatalf("stage %d got no rule", i)
		}
		if rule.Action != wire.ActionSetLimit {
			t.Errorf("stage %d action = %v", i, rule.Action)
		}
		if math.Abs(rule.Limit[wire.ClassData]-500) > 1e-6 {
			t.Errorf("stage %d data limit = %g, want 500", i, rule.Limit[wire.ClassData])
		}
		if math.Abs(rule.Limit[wire.ClassMeta]-50) > 1e-6 {
			t.Errorf("stage %d meta limit = %g, want 50", i, rule.Limit[wire.ClassMeta])
		}
	}
	if g.Recorder().Cycles() != 1 {
		t.Errorf("recorded cycles = %d", g.Recorder().Cycles())
	}
	if g.NumStages() != 8 {
		t.Errorf("NumStages = %d", g.NumStages())
	}
}

func TestFlatWeightedAllocation(t *testing.T) {
	n := fastNet()
	// Two jobs, one stage each; job 2 has triple weight.
	v1, err := stage.StartVirtual(stage.Config{
		ID: 1, JobID: 1, Weight: 1,
		Generator: workload.Constant{Rates: wire.Rates{10000, 0}},
		Network:   n.Host("stage-1"),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer v1.Close()
	v2, err := stage.StartVirtual(stage.Config{
		ID: 2, JobID: 2, Weight: 3,
		Generator: workload.Constant{Rates: wire.Rates{10000, 0}},
		Network:   n.Host("stage-2"),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer v2.Close()

	g := buildFlat(t, n, []*stage.Virtual{v1, v2}, GlobalConfig{Capacity: wire.Rates{4000, 0}})
	if _, err := g.RunCycle(context.Background()); err != nil {
		t.Fatal(err)
	}
	r1, _ := v1.LastRule()
	r2, _ := v2.LastRule()
	if math.Abs(r1.Limit[wire.ClassData]-1000) > 1e-6 {
		t.Errorf("job 1 limit = %g, want 1000 (weight 1 of 4)", r1.Limit[wire.ClassData])
	}
	if math.Abs(r2.Limit[wire.ClassData]-3000) > 1e-6 {
		t.Errorf("job 2 limit = %g, want 3000 (weight 3 of 4)", r2.Limit[wire.ClassData])
	}
}

func TestHierarchicalCycleEndToEnd(t *testing.T) {
	n := fastNet()
	stages := startStages(t, n, 12, 3, wire.Rates{1000, 100})
	g, aggs := buildHierarchy(t, n, stages, 3, GlobalConfig{Capacity: wire.Rates{6000, 600}})

	b, err := g.RunCycle(context.Background())
	if err != nil {
		t.Fatalf("RunCycle: %v", err)
	}
	if b.Total <= 0 {
		t.Errorf("breakdown = %+v", b)
	}
	if g.mode != wire.RoleAggregator {
		t.Errorf("mode = %v", g.mode)
	}
	if g.NumChildren() != 3 || g.NumStages() != 12 {
		t.Errorf("children/stages = %d/%d", g.NumChildren(), g.NumStages())
	}
	for _, a := range aggs {
		if a.NumStages() != 4 {
			t.Errorf("aggregator %d stages = %d", a.ID(), a.NumStages())
		}
	}

	// Demand 12000 > cap 6000; 3 jobs each with 4 stages; per-job alloc
	// 2000, per-stage 500.
	for i, v := range stages {
		rule, ok := v.LastRule()
		if !ok {
			t.Fatalf("stage %d got no rule", i)
		}
		if math.Abs(rule.Limit[wire.ClassData]-500) > 1e-6 {
			t.Errorf("stage %d limit = %g, want 500", i, rule.Limit[wire.ClassData])
		}
	}
}

func TestFlatAndHierAllocationsAgree(t *testing.T) {
	// With uniform demand the flat (proportional split) and hierarchical
	// (uniform split) designs must produce identical per-stage limits.
	nFlat := fastNet()
	sFlat := startStages(t, nFlat, 6, 2, wire.Rates{900, 90})
	gFlat := buildFlat(t, nFlat, sFlat, GlobalConfig{Capacity: wire.Rates{1800, 180}})
	if _, err := gFlat.RunCycle(context.Background()); err != nil {
		t.Fatal(err)
	}

	nHier := fastNet()
	sHier := startStages(t, nHier, 6, 2, wire.Rates{900, 90})
	gHier, _ := buildHierarchy(t, nHier, sHier, 2, GlobalConfig{Capacity: wire.Rates{1800, 180}})
	if _, err := gHier.RunCycle(context.Background()); err != nil {
		t.Fatal(err)
	}

	for i := range sFlat {
		rf, _ := sFlat[i].LastRule()
		rh, _ := sHier[i].LastRule()
		for c := range rf.Limit {
			if math.Abs(rf.Limit[c]-rh.Limit[c]) > 1e-6 {
				t.Errorf("stage %d class %d: flat %g vs hier %g", i, c, rf.Limit[c], rh.Limit[c])
			}
		}
	}
}

func TestModeMixingRejected(t *testing.T) {
	n := fastNet()
	stages := startStages(t, n, 1, 1, wire.Rates{1, 1})
	g := buildFlat(t, n, stages, GlobalConfig{Capacity: wire.Rates{100, 10}})
	err := g.AddAggregator(context.Background(), 99, "agg:1", nil)
	if err == nil {
		t.Fatal("mixing stage and aggregator children succeeded")
	}
}

func TestDuplicateChildRejected(t *testing.T) {
	n := fastNet()
	stages := startStages(t, n, 1, 1, wire.Rates{1, 1})
	g := buildFlat(t, n, stages, GlobalConfig{Capacity: wire.Rates{100, 10}})
	if err := g.AddStage(context.Background(), stages[0].Info()); err == nil {
		t.Fatal("duplicate stage ID accepted")
	}
}

func TestRunCycleNoChildren(t *testing.T) {
	n := fastNet()
	g, err := StartGlobal(GlobalConfig{Network: n.Host("global"), Capacity: wire.Rates{1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if _, err := g.RunCycle(context.Background()); !errors.Is(err, ErrNoChildren) {
		t.Fatalf("RunCycle = %v, want ErrNoChildren", err)
	}
}

func TestEvictionAfterStageDeath(t *testing.T) {
	n := fastNet()
	stages := startStages(t, n, 3, 1, wire.Rates{100, 10})
	g := buildFlat(t, n, stages, GlobalConfig{
		Capacity:      wire.Rates{300, 30},
		CallTimeout:   200 * time.Millisecond,
		MaxFailures:   2,
		ProbeInterval: 2 * time.Millisecond,
		EvictAfter:    30 * time.Millisecond, // opt in to permanent eviction
	})
	ctx := context.Background()
	if _, err := g.RunCycle(ctx); err != nil {
		t.Fatal(err)
	}

	// Kill one stage; after MaxFailures failed cycles it is quarantined,
	// its probes keep failing, and once EvictAfter elapses it must be
	// evicted — the control plane keeps serving the others throughout.
	stages[1].Close()
	deadline := time.Now().Add(5 * time.Second)
	for g.NumChildren() != 2 && time.Now().Before(deadline) {
		g.RunCycle(ctx)
		time.Sleep(5 * time.Millisecond)
	}
	if g.NumChildren() != 2 {
		t.Fatalf("children after death = %d, want 2", g.NumChildren())
	}
	if got := g.Faults().Quarantines(); got != 1 {
		t.Errorf("Quarantines = %d, want 1", got)
	}
	if g.Stats().Evictions != 1 {
		t.Errorf("Evictions = %d, want 1", g.Stats().Evictions)
	}
	if g.Stats().CallErrors == 0 {
		t.Error("CallErrors = 0, want > 0")
	}
	// Survivors still receive rules.
	before, _ := stages[0].Counters()
	if _, err := g.RunCycle(ctx); err != nil {
		t.Fatal(err)
	}
	after, _ := stages[0].Counters()
	if after <= before {
		t.Error("surviving stage no longer collected")
	}
}

func TestDynamicRegistration(t *testing.T) {
	n := fastNet()
	g, err := StartGlobal(GlobalConfig{
		Network:    n.Host("global"),
		ListenAddr: ":0",
		Capacity:   wire.Rates{1000, 100},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if g.Addr() == "" {
		t.Fatal("no registration address")
	}

	v, err := stage.StartVirtual(stage.Config{ID: 1, JobID: 1, Weight: 1, Network: n.Host("stage-1")})
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	if err := stage.Register(context.Background(), n.Host("stage-1"), g.Addr(), v.Info()); err != nil {
		t.Fatalf("Register: %v", err)
	}
	if g.NumChildren() != 1 {
		t.Fatalf("children after registration = %d", g.NumChildren())
	}
	if _, err := g.RunCycle(context.Background()); err != nil {
		t.Fatalf("cycle after registration: %v", err)
	}
	if _, ok := v.LastRule(); !ok {
		t.Error("registered stage got no rule")
	}
}

func TestRegistrationRejectsAggregators(t *testing.T) {
	n := fastNet()
	g, err := StartGlobal(GlobalConfig{Network: n.Host("global"), ListenAddr: ":0", Capacity: wire.Rates{1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	cli, err := rpc.Dial(context.Background(), n.Host("rogue"), g.Addr(), rpc.DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	_, err = cli.Call(context.Background(), &wire.Register{Role: wire.RoleAggregator, ID: 9})
	if err == nil {
		t.Error("aggregator dynamic registration accepted")
	}
}

func TestRemoveChild(t *testing.T) {
	n := fastNet()
	stages := startStages(t, n, 2, 1, wire.Rates{1, 1})
	g := buildFlat(t, n, stages, GlobalConfig{Capacity: wire.Rates{100, 10}})
	if !g.RemoveChild(1) {
		t.Error("RemoveChild(1) = false")
	}
	if g.RemoveChild(1) {
		t.Error("second RemoveChild(1) = true")
	}
	if g.NumChildren() != 1 {
		t.Errorf("children = %d", g.NumChildren())
	}
}

func TestRunStressLoop(t *testing.T) {
	n := fastNet()
	stages := startStages(t, n, 4, 2, wire.Rates{100, 10})
	g := buildFlat(t, n, stages, GlobalConfig{Capacity: wire.Rates{200, 20}})

	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	err := g.Run(ctx, 0) // stress: back-to-back cycles
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Run = %v", err)
	}
	if g.Recorder().Cycles() < 3 {
		t.Errorf("stress loop completed only %d cycles", g.Recorder().Cycles())
	}
}

func TestRunPeriodicInterval(t *testing.T) {
	n := fastNet()
	stages := startStages(t, n, 2, 1, wire.Rates{10, 1})
	g := buildFlat(t, n, stages, GlobalConfig{Capacity: wire.Rates{100, 10}})

	ctx, cancel := context.WithTimeout(context.Background(), 350*time.Millisecond)
	defer cancel()
	g.Run(ctx, 100*time.Millisecond)
	// ~3-4 cycles fit in 350ms at 100ms intervals.
	if c := g.Recorder().Cycles(); c < 2 || c > 6 {
		t.Errorf("periodic loop completed %d cycles, want ~3", c)
	}
}

func TestBaselineAlgorithmWiring(t *testing.T) {
	n := fastNet()
	stages := startStages(t, n, 2, 2, wire.Rates{10, 1})
	g := buildFlat(t, n, stages, GlobalConfig{
		Capacity:  wire.Rates{1000, 100},
		Algorithm: controlalg.Uniform{},
	})
	if _, err := g.RunCycle(context.Background()); err != nil {
		t.Fatal(err)
	}
	r, _ := stages[0].LastRule()
	if math.Abs(r.Limit[wire.ClassData]-500) > 1e-6 {
		t.Errorf("uniform limit = %g, want 500", r.Limit[wire.ClassData])
	}
}

func TestDeltaEnforcementSkipsUnchangedRules(t *testing.T) {
	n := fastNet()
	stages := startStages(t, n, 4, 2, wire.Rates{1000, 100}) // constant demand
	g := buildFlat(t, n, stages, GlobalConfig{
		Capacity:         wire.Rates{2000, 200},
		DeltaEnforcement: true,
	})
	ctx := context.Background()

	// Cycle 1 establishes rules, cycle 2 may still adjust (usage feedback
	// settles), cycle 3+ must be quiescent.
	for i := 0; i < 3; i++ {
		if _, err := g.RunCycle(ctx); err != nil {
			t.Fatal(err)
		}
	}
	var before [4]uint64
	for i, v := range stages {
		_, before[i] = v.Counters()
	}
	for i := 0; i < 3; i++ {
		if _, err := g.RunCycle(ctx); err != nil {
			t.Fatal(err)
		}
	}
	for i, v := range stages {
		_, after := v.Counters()
		if after != before[i] {
			t.Errorf("stage %d received %d enforces during quiescence", i, after-before[i])
		}
		// The rule itself must still be in force.
		if _, ok := v.LastRule(); !ok {
			t.Errorf("stage %d has no rule", i)
		}
	}

	// A demand change re-triggers enforcement... the constant generator
	// cannot change, so instead verify the inverse: without delta mode the
	// same quiescent cycles DO send enforces.
	g2 := buildFlat(t, n, stages, GlobalConfig{Capacity: wire.Rates{2000, 200}})
	_, b0 := stages[0].Counters()
	for i := 0; i < 2; i++ {
		if _, err := g2.RunCycle(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if _, b1 := stages[0].Counters(); b1 != b0+2 {
		t.Errorf("non-delta controller sent %d enforces, want 2", b1-b0)
	}
}

// TestHierarchicalDeltaResendsBatchWhoseEnforceFailed: the hierarchical
// enforce diffs against the same per-child rule cache as the stage-facing
// one, so it owes the same correction — a batch whose Enforce failed is not
// something the aggregator holds, and the next cycle sends it again even
// though the rules it computes have not changed.
func TestHierarchicalDeltaResendsBatchWhoseEnforceFailed(t *testing.T) {
	n := fastNet()
	ctx := context.Background()
	// A stand-in aggregator: constant per-job aggregates, and an enforce
	// handler that fails the first request and records every later one. Its
	// connection is served in order, so the plain variables are safe to read
	// between cycles.
	var enforces, delivered int
	agg, err := rpc.Serve(n.Host("agg"), ":0", rpc.HandlerFunc(func(_ *rpc.Peer, req wire.Message) (wire.Message, error) {
		switch m := req.(type) {
		case *wire.Collect:
			return &wire.CollectAggReply{Cycle: m.Cycle, AggregatorID: 1000,
				Jobs: []wire.JobReport{{JobID: 1, Stages: 2, Demand: wire.Rates{1000, 100}}}}, nil
		case *wire.Enforce:
			if enforces++; enforces == 1 {
				return nil, errors.New("synthetic enforce failure")
			}
			delivered += len(m.Rules)
			return &wire.EnforceAck{Cycle: m.Cycle, Applied: uint32(len(m.Rules))}, nil
		}
		return nil, fmt.Errorf("unexpected %s", req.Type())
	}), rpc.ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer agg.Close()

	g, err := StartGlobal(GlobalConfig{
		Network:          n.Host("global"),
		Capacity:         wire.Rates{500, 50},
		DeltaEnforcement: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	behind := []stage.Info{{ID: 1, JobID: 1, Weight: 1}, {ID: 2, JobID: 1, Weight: 1}}
	if err := g.AddAggregator(ctx, 1000, agg.Addr().String(), behind); err != nil {
		t.Fatal(err)
	}
	for cycle, want := range []struct{ enforces, delivered int }{
		{1, 0}, // the batch is sent and refused
		{2, 2}, // unchanged rules, sent again: the aggregator does not hold them
		{2, 2}, // delivered: now the diff is empty
	} {
		if _, err := g.RunCycle(ctx); err != nil {
			t.Fatal(err)
		}
		if enforces != want.enforces || delivered != want.delivered {
			t.Fatalf("cycle %d: aggregator saw %d enforces delivering %d rules, want %d and %d",
				cycle+1, enforces, delivered, want.enforces, want.delivered)
		}
	}
}

// TestReRegistrationGetsFullRules: under delta enforcement, a child that
// re-registers (restarted or re-homed to a promoted standby) may have lost
// its rules, so its delta cache must be invalidated and the next cycle must
// send it a full rule set — while undisturbed children stay quiescent.
func TestReRegistrationGetsFullRules(t *testing.T) {
	n := fastNet()
	stages := startStages(t, n, 4, 2, wire.Rates{1000, 100}) // constant demand
	g := buildFlat(t, n, stages, GlobalConfig{
		Capacity:         wire.Rates{2000, 200},
		DeltaEnforcement: true,
		ListenAddr:       ":0",
	})
	ctx := context.Background()

	// Converge, then confirm quiescence: no enforces flow.
	for i := 0; i < 3; i++ {
		if _, err := g.RunCycle(ctx); err != nil {
			t.Fatal(err)
		}
	}
	_, before := stages[0].Counters()
	if _, err := g.RunCycle(ctx); err != nil {
		t.Fatal(err)
	}
	if _, after := stages[0].Counters(); after != before {
		t.Fatalf("stage 1 received %d enforces during quiescence", after-before)
	}

	// Stage 1 re-homes: a duplicate registration replaces its connection.
	if err := stage.Register(ctx, n.Host("stage-1"), g.Addr(), stages[0].Info()); err != nil {
		t.Fatalf("re-register: %v", err)
	}
	if got := g.Faults().ReRegistrations(); got != 1 {
		t.Fatalf("re-registrations = %d, want 1", got)
	}

	_, otherBefore := stages[1].Counters()
	if _, err := g.RunCycle(ctx); err != nil {
		t.Fatal(err)
	}
	if _, after := stages[0].Counters(); after != before+1 {
		t.Fatalf("re-homed stage got %d enforces, want a full (non-delta) rule set", after-before)
	}
	if _, ok := stages[0].LastRule(); !ok {
		t.Fatal("re-homed stage has no rule after the post-re-homing cycle")
	}
	if _, otherAfter := stages[1].Counters(); otherAfter != otherBefore {
		t.Fatalf("undisturbed stage got %d enforces, want 0", otherAfter-otherBefore)
	}
}

func TestMetersCharged(t *testing.T) {
	n := fastNet()
	stages := startStages(t, n, 4, 2, wire.Rates{100, 10})
	var meter transport.Meter
	var cpu monitor.CPUMeter
	g := buildFlat(t, n, stages, GlobalConfig{
		Capacity: wire.Rates{200, 20},
		Meter:    &meter,
		CPU:      &cpu,
	})
	if _, err := g.RunCycle(context.Background()); err != nil {
		t.Fatal(err)
	}
	if meter.Tx() == 0 || meter.Rx() == 0 {
		t.Errorf("meter = %d/%d, want nonzero", meter.Tx(), meter.Rx())
	}
	if cpu.Busy() <= 0 {
		t.Error("CPU meter not charged")
	}
}

func TestMemoryFootprintGrowsWithChildren(t *testing.T) {
	n := fastNet()
	stages := startStages(t, n, 10, 2, wire.Rates{1, 1})
	g := buildFlat(t, n, stages[:2], GlobalConfig{Capacity: wire.Rates{10, 1}})
	small := g.MemoryFootprint()
	for _, v := range stages[2:] {
		if err := g.AddStage(context.Background(), v.Info()); err != nil {
			t.Fatal(err)
		}
	}
	large := g.MemoryFootprint()
	if large <= small {
		t.Errorf("footprint did not grow: %d -> %d", small, large)
	}
	var _ monitor.MemoryReporter = g
}

func TestAggregatorMemoryFootprint(t *testing.T) {
	n := fastNet()
	stages := startStages(t, n, 4, 1, wire.Rates{1, 1})
	a, err := StartAggregator(AggregatorConfig{ID: 1, Network: n.Host("agg")})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	empty := a.MemoryFootprint()
	for _, v := range stages {
		a.AddStage(context.Background(), v.Info())
	}
	if a.MemoryFootprint() <= empty {
		t.Error("aggregator footprint did not grow")
	}
	var _ monitor.MemoryReporter = a
}

func TestAttachAggregatorDiscoversStages(t *testing.T) {
	// AttachAggregator queries the aggregator for its stage list — the
	// multi-host path where the global cannot know the stages up front.
	n := fastNet()
	stages := startStages(t, n, 5, 2, wire.Rates{100, 10})
	ctx := context.Background()

	a, err := StartAggregator(AggregatorConfig{ID: 77, Network: n.Host("agg")})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	for _, v := range stages {
		if err := a.AddStage(ctx, v.Info()); err != nil {
			t.Fatal(err)
		}
	}

	g, err := StartGlobal(GlobalConfig{Network: n.Host("global"), Capacity: wire.Rates{250, 25}})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if err := g.AttachAggregator(ctx, 77, a.Addr()); err != nil {
		t.Fatalf("AttachAggregator: %v", err)
	}
	if g.NumStages() != 5 {
		t.Fatalf("NumStages after attach = %d, want 5", g.NumStages())
	}
	if _, err := g.RunCycle(ctx); err != nil {
		t.Fatal(err)
	}
	for i, v := range stages {
		if _, ok := v.LastRule(); !ok {
			t.Errorf("stage %d got no rule after attach", i)
		}
	}
}

func TestAttachAggregatorErrors(t *testing.T) {
	n := fastNet()
	g, err := StartGlobal(GlobalConfig{Network: n.Host("global"), Capacity: wire.Rates{1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if err := g.AttachAggregator(context.Background(), 1, "nowhere:1"); err == nil {
		t.Error("AttachAggregator to nowhere succeeded")
	}
	// A stage is not an aggregator: StageList must be rejected.
	v, err := stage.StartVirtual(stage.Config{ID: 1, Network: n.Host("s")})
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	if err := g.AttachAggregator(context.Background(), 1, v.Info().Addr); err == nil {
		t.Error("AttachAggregator to a stage succeeded")
	}
}

func TestForwardRawAblation(t *testing.T) {
	// An aggregator in ForwardRaw mode relays raw per-stage reports; the
	// global controller must aggregate them itself and still produce the
	// same rules as the pre-aggregating path.
	n := fastNet()
	stages := startStages(t, n, 6, 2, wire.Rates{900, 90})
	ctx := context.Background()

	a, err := StartAggregator(AggregatorConfig{
		ID:         1000,
		Network:    n.Host("agg"),
		ForwardRaw: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	for _, v := range stages {
		if err := a.AddStage(ctx, v.Info()); err != nil {
			t.Fatal(err)
		}
	}

	g, err := StartGlobal(GlobalConfig{Network: n.Host("global"), Capacity: wire.Rates{1800, 180}})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if err := g.AddAggregator(ctx, a.ID(), a.Addr(), a.Stages()); err != nil {
		t.Fatal(err)
	}
	if _, err := g.RunCycle(ctx); err != nil {
		t.Fatal(err)
	}
	// Demand 5400 > cap 1800; 2 jobs × 3 stages: per-stage 300 data.
	for i, v := range stages {
		rule, ok := v.LastRule()
		if !ok {
			t.Fatalf("stage %d got no rule in ForwardRaw mode", i)
		}
		if math.Abs(rule.Limit[wire.ClassData]-300) > 1e-6 {
			t.Errorf("stage %d limit = %g, want 300", i, rule.Limit[wire.ClassData])
		}
	}
}

func TestDelegatedHierarchyMatchesPlainAllocations(t *testing.T) {
	// The §VI delegated hierarchy: global sends per-job budgets and the
	// aggregator computes per-stage rules locally. With uniform demand the
	// resulting limits must equal the plain hierarchy's.
	n := fastNet()
	stages := startStages(t, n, 6, 2, wire.Rates{900, 90})
	ctx := context.Background()

	a, err := StartAggregator(AggregatorConfig{
		ID:      1000,
		Network: n.Host("agg"),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	for _, v := range stages {
		if err := a.AddStage(ctx, v.Info()); err != nil {
			t.Fatal(err)
		}
	}

	g, err := StartGlobal(GlobalConfig{
		Network:   n.Host("global"),
		Capacity:  wire.Rates{1800, 180},
		Delegated: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if err := g.AddAggregator(ctx, a.ID(), a.Addr(), a.Stages()); err != nil {
		t.Fatal(err)
	}
	if _, err := g.RunCycle(ctx); err != nil {
		t.Fatal(err)
	}
	// Demand 5400 > cap 1800; 2 jobs × 3 stages; per-stage 300 data. Each
	// job's split comes out uniform, so the aggregator addresses it to the
	// job as one wildcard rule — which must reach every one of the job's
	// stages, once, and none of the other job's.
	for i, v := range stages {
		rule, ok := v.LastRule()
		if !ok {
			t.Fatalf("stage %d got no rule via delegation", i)
		}
		if rule.StageID != wire.WildcardStage || rule.JobID != v.Info().JobID {
			t.Errorf("stage %d holds rule %+v, want job %d's wildcard", i, rule, v.Info().JobID)
		}
		if _, enforces := v.Counters(); enforces != 1 {
			t.Errorf("stage %d applied %d rules, want 1", i, enforces)
		}
		if math.Abs(rule.Limit[wire.ClassData]-300) > 1e-6 {
			t.Errorf("stage %d limit = %g, want 300", i, rule.Limit[wire.ClassData])
		}
		if math.Abs(rule.Limit[wire.ClassMeta]-30) > 1e-6 {
			t.Errorf("stage %d meta limit = %g, want 30", i, rule.Limit[wire.ClassMeta])
		}
	}
}

func TestDelegatedSplitsProportionallyToLocalDemand(t *testing.T) {
	// Unequal demand within one job: the aggregator's local split must
	// weight stages by their observed demand — finer than what the plain
	// hierarchy (uniform split at the global) can do.
	n := fastNet()
	ctx := context.Background()
	mk := func(id uint64, rate float64) *stage.Virtual {
		v, err := stage.StartVirtual(stage.Config{
			ID: id, JobID: 1, Weight: 1,
			Generator: workload.Constant{Rates: wire.Rates{rate, 0}},
			Network:   n.Host(fmt.Sprintf("stage-%d", id)),
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { v.Close() })
		return v
	}
	heavy := mk(1, 3000)
	light := mk(2, 1000)

	a, err := StartAggregator(AggregatorConfig{ID: 1000, Network: n.Host("agg")})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	a.AddStage(ctx, heavy.Info())
	a.AddStage(ctx, light.Info())

	g, err := StartGlobal(GlobalConfig{Network: n.Host("global"), Capacity: wire.Rates{2000, 0}, Delegated: true})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	g.AddAggregator(ctx, a.ID(), a.Addr(), a.Stages())
	if _, err := g.RunCycle(ctx); err != nil {
		t.Fatal(err)
	}

	rh, _ := heavy.LastRule()
	rl, _ := light.LastRule()
	// Job budget = 2000; demand split 3:1 -> 1500 / 500.
	if math.Abs(rh.Limit[wire.ClassData]-1500) > 1e-6 {
		t.Errorf("heavy stage = %g, want 1500", rh.Limit[wire.ClassData])
	}
	if math.Abs(rl.Limit[wire.ClassData]-500) > 1e-6 {
		t.Errorf("light stage = %g, want 500", rl.Limit[wire.ClassData])
	}
}

// TestAggregatorFencesStaleControlMessages: once an aggregator has seen
// epoch 5, a Collect, an Enforce and a Delegate from epoch 4 — a deposed
// primary — are each rejected with CodeStaleEpoch naming epoch 5, and no
// stage's rule changes. The current epoch's Delegate then goes through.
func TestAggregatorFencesStaleControlMessages(t *testing.T) {
	n := fastNet()
	ctx := context.Background()
	stages := startStages(t, n, 2, 1, wire.Rates{100, 10})
	a, err := StartAggregator(AggregatorConfig{ID: 1, Network: n.Host("agg")})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	for _, v := range stages {
		if err := a.AddStage(ctx, v.Info()); err != nil {
			t.Fatal(err)
		}
	}
	cli, err := rpc.Dial(ctx, n.Host("probe"), a.Addr(), rpc.DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if _, err := cli.Call(ctx, &wire.Collect{Cycle: 1, WindowMicros: 1_000_000, Epoch: 5}); err != nil {
		t.Fatal(err)
	}

	budget := []wire.JobBudget{{JobID: 1, Limit: wire.Rates{7, 1}}}
	for _, m := range []wire.Message{
		&wire.Collect{Cycle: 2, WindowMicros: 1_000_000, Epoch: 4},
		&wire.Enforce{Cycle: 2, Epoch: 4, Rules: []wire.Rule{{StageID: 1, JobID: 1, Action: wire.ActionSetLimit, Limit: wire.Rates{7, 1}}}},
		&wire.Delegate{Cycle: 2, Epoch: 4, Budgets: budget},
	} {
		_, err := cli.Call(ctx, m)
		if cur, ok := rpc.StaleEpochError(err); !ok || cur != 5 {
			t.Errorf("epoch-4 %s: err %v, want CodeStaleEpoch at epoch 5", m.Type(), err)
		}
	}
	if got := a.Stats().FencedCalls; got != 3 {
		t.Errorf("FencedCalls = %d, want 3", got)
	}
	for i, v := range stages {
		if r, ok := v.LastRule(); ok {
			t.Errorf("stage %d holds rule %+v from a fenced call", i, r)
		}
	}

	if _, err := cli.Call(ctx, &wire.Delegate{Cycle: 2, Epoch: 5, Budgets: budget}); err != nil {
		t.Fatalf("epoch-5 Delegate: %v", err)
	}
	for i, v := range stages {
		if r, ok := v.LastRule(); !ok || r.StageID != wire.WildcardStage || r.Limit != (wire.Rates{3.5, 0.5}) {
			t.Errorf("stage %d holds %+v (ok=%v), want the job's wildcard at {3.5 0.5}", i, r, ok)
		}
	}
}

func TestAggregatorDynamicStageRegistration(t *testing.T) {
	n := fastNet()
	a, err := StartAggregator(AggregatorConfig{ID: 1, Network: n.Host("agg")})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	v, err := stage.StartVirtual(stage.Config{ID: 1, JobID: 1, Network: n.Host("stage-1")})
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	if err := stage.Register(context.Background(), n.Host("stage-1"), a.Addr(), v.Info()); err != nil {
		t.Fatalf("Register with aggregator: %v", err)
	}
	if a.NumStages() != 1 {
		t.Errorf("aggregator stages = %d", a.NumStages())
	}
}

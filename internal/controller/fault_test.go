package controller

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/dsrhaslab/sdscale/internal/rpc"
	"github.com/dsrhaslab/sdscale/internal/stage"
	"github.com/dsrhaslab/sdscale/internal/transport/simnet"
	"github.com/dsrhaslab/sdscale/internal/wire"
)

// A partitioned stage must be quarantined (not evicted), cycles must keep
// completing on cached reports, and healing the partition must readmit it.
func TestQuarantineHealReadmission(t *testing.T) {
	n := fastNet()
	stages := startStages(t, n, 3, 1, wire.Rates{100, 10})
	g := buildFlat(t, n, stages, GlobalConfig{
		Capacity:      wire.Rates{300, 30},
		CallTimeout:   200 * time.Millisecond,
		MaxFailures:   2,
		ProbeInterval: 2 * time.Millisecond,
		// EvictAfter left zero: quarantine must never turn into eviction.
	})
	ctx := context.Background()

	// A healthy cycle first, so the victim has a cached report to serve
	// degraded collects from.
	if _, err := g.RunCycle(ctx); err != nil {
		t.Fatalf("warmup cycle: %v", err)
	}

	n.Host("stage-2").SetPartitioned(true)
	deadline := time.Now().Add(5 * time.Second)
	for g.Stats().Quarantined != 1 && time.Now().Before(deadline) {
		if _, err := g.RunCycle(ctx); err != nil {
			t.Fatalf("cycle during partition: %v", err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if got := g.Stats().QuarantinedIDs; len(got) != 1 || got[0] != 2 {
		t.Fatalf("QuarantinedIDs = %v, want [2]", got)
	}
	if got := g.NumChildren(); got != 3 {
		t.Errorf("NumChildren = %d, want 3 (quarantine must not evict)", got)
	}

	// One more cycle while quarantined: it must complete, count as
	// degraded, and serve the victim's cached report as stale data.
	if _, err := g.RunCycle(ctx); err != nil {
		t.Fatalf("degraded cycle: %v", err)
	}
	f := g.Faults()
	if f.DegradedCycles() == 0 {
		t.Error("DegradedCycles = 0, want > 0")
	}
	if f.Summarize().StaleReportsUsed == 0 {
		t.Error("no stale reports used during degraded cycles")
	}

	n.Host("stage-2").SetPartitioned(false)
	deadline = time.Now().Add(5 * time.Second)
	for g.Stats().Quarantined != 0 && time.Now().Before(deadline) {
		if _, err := g.RunCycle(ctx); err != nil {
			t.Fatalf("cycle after heal: %v", err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if got := g.Stats().Quarantined; got != 0 {
		t.Fatalf("Quarantined = %d after heal, want 0", got)
	}
	if f.Readmissions() == 0 {
		t.Error("Readmissions = 0, want >= 1")
	}
	if f.Evictions() != 0 {
		t.Errorf("Evictions = %d, want 0", f.Evictions())
	}
	// The readmitted child takes part in cycles again.
	if _, err := g.RunCycle(ctx); err != nil {
		t.Fatalf("cycle after readmission: %v", err)
	}
}

// Caller-side cancellation is a shutdown, not a child failure: a cycle run
// under a canceled or expiring context must not charge strikes, call
// errors, quarantines, or evictions against healthy children.
func TestCancelMidCycleNoStrikes(t *testing.T) {
	// ProcTime makes each call cost ~1ms of simulated host time, so the
	// 2ms deadline below reliably expires mid-cycle.
	n := simnet.New(simnet.Config{PropDelay: -1, ProcTime: time.Millisecond})
	stages := startStages(t, n, 8, 2, wire.Rates{100, 10})
	g := buildFlat(t, n, stages, GlobalConfig{
		Capacity:    wire.Rates{800, 80},
		MaxFailures: 1, // a single wrongly-charged strike would quarantine
	})
	ctx := context.Background()
	if _, err := g.RunCycle(ctx); err != nil {
		t.Fatalf("warmup cycle: %v", err)
	}
	if g.Stats().CallErrors != 0 {
		t.Fatalf("CallErrors = %d before cancellation, want 0", g.Stats().CallErrors)
	}

	// Already-canceled context: every call fails instantly.
	canceled, cancel := context.WithCancel(ctx)
	cancel()
	g.RunCycle(canceled)

	// Deadline expiring mid-cycle: some calls are in flight when it hits.
	expiring, cancel2 := context.WithTimeout(ctx, 2*time.Millisecond)
	defer cancel2()
	g.RunCycle(expiring)

	if got := g.Stats().CallErrors; got != 0 {
		t.Errorf("CallErrors = %d after canceled cycles, want 0", got)
	}
	f := g.Faults()
	if f.Quarantines() != 0 || f.Evictions() != 0 {
		t.Errorf("quarantines=%d evictions=%d after canceled cycles, want 0/0",
			f.Quarantines(), f.Evictions())
	}
	if got := g.Stats().Quarantined; got != 0 {
		t.Errorf("Quarantined = %d, want 0", got)
	}

	// The children are untouched: a normal cycle still succeeds.
	if _, err := g.RunCycle(ctx); err != nil {
		t.Fatalf("cycle after canceled cycles: %v", err)
	}
}

// gatedStage is a fake stage whose Collect handler blocks until gate closes.
// It counts the collects that reach it and keeps the last rule enforced on it.
type gatedStage struct {
	info     stage.Info
	collects atomic.Int64

	mu    sync.Mutex
	rule  wire.Rule
	ruled bool
}

func startGatedStage(t *testing.T, n *simnet.Net, info stage.Info, demand wire.Rates, gate <-chan struct{}) *gatedStage {
	t.Helper()
	s := &gatedStage{}
	srv, err := rpc.Serve(n.Host(fmt.Sprintf("stage-%d", info.ID)), ":0", rpc.HandlerFunc(func(_ *rpc.Peer, req wire.Message) (wire.Message, error) {
		switch m := req.(type) {
		case *wire.Collect:
			s.collects.Add(1)
			<-gate
			return &wire.CollectReply{Cycle: m.Cycle, Reports: []wire.StageReport{
				{StageID: info.ID, JobID: info.JobID, Demand: demand, Usage: demand},
			}}, nil
		case *wire.Enforce:
			s.mu.Lock()
			for _, r := range m.Rules {
				s.rule, s.ruled = r, true
			}
			s.mu.Unlock()
			return &wire.EnforceAck{Cycle: m.Cycle, Applied: uint32(len(m.Rules))}, nil
		case *wire.Heartbeat:
			return &wire.HeartbeatAck{EchoUnixMicros: m.SentUnixMicros}, nil
		}
		return nil, fmt.Errorf("unexpected %s", req.Type())
	}), rpc.ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	info.Addr = srv.Addr().String()
	s.info = info
	return s
}

// lastRule returns the last rule enforced on the stage.
func (s *gatedStage) lastRule() (wire.Rule, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rule, s.ruled
}

// TestStalledAggregatorQuarantinedWithBoundedBacklog: an aggregator whose
// Collect sub-cycle stalls on one of its stages cannot hold up the global.
// Each cycle gives up on it at the phase deadline and completes on the other
// aggregator's reports, and after MaxFailures timed-out collects the stalled
// aggregator is quarantined and sent only heartbeat probes. Its server
// answers a connection's requests in order, so the collects that timed out
// wait behind the stalled one and each runs once the stall ends: the breaker
// bounds that backlog to MaxFailures sub-cycles. The aggregator is then
// readmitted, and a cycle leaves a rule on every stage with the limits
// summing to the capacity.
func TestStalledAggregatorQuarantinedWithBoundedBacklog(t *testing.T) {
	const (
		maxFailures = 3
		callTimeout = 200 * time.Millisecond
	)
	capacity, demand := wire.Rates{1200, 120}, wire.Rates{1000, 100}
	n := fastNet()
	ctx := context.Background()
	gate := make(chan struct{})
	var opened sync.Once
	openGate := func() { opened.Do(func() { close(gate) }) }
	t.Cleanup(openGate)

	// Aggregator A manages stages 1-4; the stalled aggregator B manages stage
	// 5 and the gated stage 6. Jobs 1 and 2 each have two stages under A.
	virtual := startStages(t, n, 5, 2, demand)
	gated := startGatedStage(t, n, stage.Info{ID: 6, JobID: 2, Weight: 1}, demand, gate)
	var aggs [2]*Aggregator
	for i := range aggs {
		a, err := StartAggregator(AggregatorConfig{ID: uint64(1001 + i), Network: n.Host(fmt.Sprintf("agg-%d", i))})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { a.Close() })
		aggs[i] = a
	}
	for i, v := range virtual {
		if err := aggs[i/4].AddStage(ctx, v.Info()); err != nil {
			t.Fatal(err)
		}
	}
	if err := aggs[1].AddStage(ctx, gated.info); err != nil {
		t.Fatal(err)
	}
	g, err := StartGlobal(GlobalConfig{
		Network:          n.Host("global"),
		Capacity:         capacity,
		CallTimeout:      callTimeout,
		MaxFailures:      maxFailures,
		ProbeInterval:    5 * time.Millisecond,
		MaxProbeInterval: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { g.Close() })
	for _, a := range aggs {
		if err := g.AddAggregator(ctx, a.ID(), a.Addr(), a.Stages()); err != nil {
			t.Fatal(err)
		}
	}

	// held sums the limits of the rules the virtual stages hold.
	held := func(vs []*stage.Virtual) (sum wire.Rates) {
		t.Helper()
		for _, v := range vs {
			r, ok := v.LastRule()
			if !ok {
				t.Fatalf("stage %d holds no rule", v.Info().ID)
			}
			for c := range sum {
				sum[c] += r.Limit[c]
			}
		}
		return sum
	}
	near := func(a, b wire.Rates) bool {
		for c := range a {
			if math.Abs(a[c]-b[c]) > 1e-6 {
				return false
			}
		}
		return true
	}

	for cycle := 1; cycle <= maxFailures+1; cycle++ {
		start := time.Now()
		if _, err := g.RunCycle(ctx); err != nil {
			t.Fatalf("cycle %d during the stall: %v", cycle, err)
		}
		if el := time.Since(start); el > callTimeout+time.Second {
			t.Fatalf("cycle %d took %v: the stalled aggregator held it past its %v deadline", cycle, el, callTimeout)
		}
		if got := held(virtual[:4]); !near(got, capacity) {
			t.Fatalf("cycle %d: A's stages hold %v in all, want the capacity %v", cycle, got, capacity)
		}
		ids := g.Stats().QuarantinedIDs
		if quarantined := len(ids) == 1 && ids[0] == aggs[1].ID(); quarantined != (cycle >= maxFailures) {
			t.Fatalf("after cycle %d QuarantinedIDs = %v; want the stalled aggregator there from cycle %d on", cycle, ids, maxFailures)
		}
	}
	if got := gated.collects.Load(); got != 1 {
		t.Fatalf("%d collects reached the gated stage during the stall, want the one stuck there", got)
	}

	openGate()
	deadline := time.Now().Add(5 * time.Second)
	for g.Stats().Quarantined != 0 {
		if time.Now().After(deadline) {
			t.Fatal("the aggregator was not readmitted after its stall ended")
		}
		if _, err := g.RunCycle(ctx); err != nil {
			t.Fatalf("cycle after the stall: %v", err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	// The readmission cycle collected from B; so does this one. B answers in
	// order, so when it answers this one its whole backlog has run.
	if _, err := g.RunCycle(ctx); err != nil {
		t.Fatalf("cycle after readmission: %v", err)
	}
	sum := held(virtual)
	r, ok := gated.lastRule()
	if !ok {
		t.Fatal("the gated stage holds no rule")
	}
	for c := range sum {
		sum[c] += r.Limit[c]
	}
	if !near(sum, capacity) {
		t.Errorf("the six stages hold %v in all, want the capacity %v", sum, capacity)
	}
	if stall := gated.collects.Load() - 2; stall > maxFailures {
		t.Errorf("the stalled aggregator ran %d collect sub-cycles for the stall, want at most %d", stall, maxFailures)
	}
}

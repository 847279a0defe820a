package controller

import (
	"context"
	"testing"
	"time"

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

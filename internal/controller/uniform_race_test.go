package controller

import (
	"context"
	"sync"
	"testing"

	"github.com/dsrhaslab/sdscale/internal/wire"
)

// TestEnforceUniformDuringRun runs back-to-back pipelined cycles while
// another goroutine loops EnforceUniform, the way shard.Router's
// EnforceUniform calls it: with no lock against Run. The cycle's
// call-handle slab is cycle-serial, so an off-cycle fan-out drawing from it
// is a data race with the cycle's own Take (and the arena reset at the next
// cycle start clears handles the off-cycle harvest still reads). Run under
// -race (the CI race shard covers this package).
func TestEnforceUniformDuringRun(t *testing.T) {
	n := fastNet()
	stages := startStages(t, n, 64, 4, wire.Rates{1000, 100})
	g := buildFlat(t, n, stages, GlobalConfig{
		Capacity:   wire.Rates{64000, 6400},
		FanOutMode: FanOutPipelined,
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := g.Run(ctx, 0); err != context.Canceled {
			t.Errorf("Run = %v, want context.Canceled", err)
		}
	}()
	for i := 0; i < 200; i++ {
		applied, err := g.EnforceUniform(ctx, 1, wire.ActionSetLimit, wire.Rates{float64(100 + i), 10})
		if err != nil {
			t.Fatalf("EnforceUniform %d: %v", i, err)
		}
		if applied != 16 {
			t.Fatalf("EnforceUniform %d applied to %d stages, want the 16 of job 1", i, applied)
		}
	}
	cancel()
	wg.Wait()
}

// TestEnforceUniformStraightAfterAddStage: a wildcard rule is matched on the
// decoded rule, so it needs nothing from the connection that carries it.
// EnforceUniform called the moment the fleet is attached reaches every stage
// of the job and no other, and encodes the frame exactly once: every
// connection speaks one encoding from its first frame.
func TestEnforceUniformStraightAfterAddStage(t *testing.T) {
	n := fastNet()
	stages := startStages(t, n, 64, 4, wire.Rates{1000, 100})
	g := buildFlat(t, n, stages, GlobalConfig{Capacity: wire.Rates{64000, 6400}})
	limit := wire.Rates{123, 45}
	applied, err := g.EnforceUniform(context.Background(), 1, wire.ActionSetLimit, limit)
	if err != nil {
		t.Fatal(err)
	}
	if applied != 16 {
		t.Errorf("applied to %d stages, want the 16 of job 1", applied)
	}
	for _, v := range stages {
		rule, ok := v.LastRule()
		if mine := v.Info().JobID == 1; ok != mine || (mine && rule.Limit != limit) {
			t.Errorf("stage %d (job %d): rule %+v, held = %v", v.Info().ID, v.Info().JobID, rule, ok)
		}
	}
	p := g.Pipeline()
	if sends, encodes := p.SharedSends(), p.SharedEncodes(); sends != 64 || encodes != 1 {
		t.Errorf("%d shared sends from %d encodes, want 64 from 1", sends, encodes)
	}
}

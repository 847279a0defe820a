package cluster

import (
	"context"
	"runtime"
	"testing"
)

// TestFleetFootprintPerStage guards what one more stage costs a simulated
// fleet at rest. The three simnet benchmark workloads hold 10,000 stages in
// one process, so a per-listener or per-client allocation of a few tens of
// kilobytes is hundreds of megabytes there (a 32 KB accept-queue channel per
// listener once was 317 MB of a 488 MB heap). The bound sits at about twice
// what a stage costs today, far below one such mistake.
func TestFleetFootprintPerStage(t *testing.T) {
	const (
		stages      = 1000
		maxPerStage = 24 << 10
	)
	heap := func() int64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}
	before := heap()
	c, err := Build(Config{Topology: Flat, Stages: stages, Net: fastNet()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// One cycle, so every connection has negotiated its codec and holds the
	// buffers it will keep.
	if _, err := c.Global.RunCycle(context.Background()); err != nil {
		t.Fatalf("cycle: %v", err)
	}
	perStage := (heap() - before) / stages
	t.Logf("%d-stage flat fleet at rest: %d B of heap per stage", stages, perStage)
	if perStage > maxPerStage {
		t.Errorf("a stage costs %d B of heap at rest, want <= %d", perStage, maxPerStage)
	}
}

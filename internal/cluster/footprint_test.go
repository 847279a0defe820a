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
// listener once was 317 MB of a 488 MB heap). A stage costs about 7.6 KB
// today; the bound is the 8 KB budget, so a few hundred bytes more per stage
// fail it. Goroutines are counted the same way: a stage has the one
// goroutine that serves its connection and the controller's read loop for
// it — two, plus a handful for the whole controller that the division
// rounds away. A third per stage (an accept loop, before simnet listeners
// handed connections to the server) was 10,000 parked stacks; a fourth (the
// server's separate handler goroutine, before stage handlers ran inline) was
// 10,000 more and a wake-up per call.
func TestFleetFootprintPerStage(t *testing.T) {
	const (
		stages               = 1000
		maxPerStage          = 8 << 10
		maxGoroutinePerStage = 2
	)
	heap := func() int64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}
	before, goBefore := heap(), runtime.NumGoroutine()
	c, err := Build(Config{Topology: Flat, Stages: stages, Net: fastNet()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// One cycle, so every connection has carried a call and holds the
	// buffers it will keep.
	if _, err := c.Global.RunCycle(context.Background()); err != nil {
		t.Fatalf("cycle: %v", err)
	}
	perStage := (heap() - before) / stages
	added := runtime.NumGoroutine() - goBefore
	t.Logf("%d-stage flat fleet at rest: %d B of heap per stage, %d goroutines added", stages, perStage, added)
	if perStage > maxPerStage {
		t.Errorf("a stage costs %d B of heap at rest, want <= %d", perStage, maxPerStage)
	}
	if added/stages > maxGoroutinePerStage {
		t.Errorf("the fleet added %d goroutines, %d per stage, want <= %d", added, added/stages, maxGoroutinePerStage)
	}
}

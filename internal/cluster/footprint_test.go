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
// what a stage costs today, far below one such mistake. Goroutines are
// counted the same way: a stage has its accept loop, the one goroutine that
// serves its connection and the controller's read loop for it — three, plus
// a handful for the whole controller that the division rounds away. A fourth
// per stage (the server's separate handler goroutine, before stage handlers
// ran inline) was 10,000 stacks and a wake-up per call.
func TestFleetFootprintPerStage(t *testing.T) {
	const (
		stages               = 1000
		maxPerStage          = 24 << 10
		maxGoroutinePerStage = 3
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
	// One cycle, so every connection has negotiated its codec and holds the
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

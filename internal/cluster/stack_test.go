package cluster

import (
	"context"
	"runtime"
	"runtime/debug"
	"testing"

	"github.com/dsrhaslab/sdscale/internal/controller"
	"github.com/dsrhaslab/sdscale/internal/stage"
	"github.com/dsrhaslab/sdscale/internal/transport/tcpnet"
	"github.com/dsrhaslab/sdscale/internal/wire"
)

// TestTCPFleetStackPerStage guards what the goroutine stacks of one more
// stage cost a flat fleet over loopback TCP, where neither end of a
// connection hands its reads off: every stage adds two pumps, one on the
// stage's server and one on the controller's client. A reply or a request
// handled a few frames deeper inside a pump doubles that pump's stack, which
// took a 1,000-stage fleet's StackInuse from 11.5 to 13.9 MB. Three changes
// have crossed that line: inlining the client's out-of-line helpers into its
// frame handler; a pump that calls arrive through a method value rather than
// through the reader interface; and a frame handler that parses the frame
// header itself rather than taking it from arrive. A simnet fleet runs no
// pump, so TestFleetFootprintPerStage cannot see any of them.
//
// A pump's deepest path is its steady one. It takes no frame buffer or
// coder from a pool and, once its connection has sized its buffers,
// allocates nothing, but a request's path from arrive through the handler
// to the response write still outgrows a pump's first stack size; what a
// stage costs at rest is what the collections that follow shrink that
// stack back to. The test collects often (GOGC 10), as a large fleet does,
// so it reads the shrunken size rather than the last collection's timing.
// Measured on a 2-core x86-64 VM with go1.24: a stage costs 11.3-12.0 KB of
// stack here (13.3 KB once, beside a concurrent full test run; 12.6-13.1 KB
// at GOGC 100), and 14.3-14.7 KB with any of the three changes above; the
// bound sits between them.
func TestTCPFleetStackPerStage(t *testing.T) {
	if testing.Short() {
		t.Skip("200 loopback TCP stages")
	}
	if raceEnabled {
		t.Skip("the race detector enlarges every stack frame")
	}
	const (
		stages, cycles = 200, 20
		maxPerStage    = 27 << 9 // 13.5 KB
	)
	stackInuse := func() int64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return int64(m.StackInuse)
	}
	defer debug.SetGCPercent(debug.SetGCPercent(10))
	ctx := context.Background()
	network := tcpnet.New()
	before := stackInuse()
	g, err := controller.StartGlobal(controller.GlobalConfig{
		Network:    network,
		ListenAddr: "127.0.0.1:0",
		Capacity:   wire.Rates{500, 50}.Scale(stages),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	for i := 0; i < stages; i++ {
		v, err := stage.StartVirtual(stage.Config{
			ID: uint64(i + 1), JobID: uint64(i%16 + 1), Weight: 1,
			Network: network, ListenAddr: "127.0.0.1:0",
		})
		if err != nil {
			t.Fatal(err)
		}
		defer v.Close()
		if err := stage.Register(ctx, network, g.Addr(), v.Info()); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < cycles; i++ {
		if _, err := g.RunCycle(ctx); err != nil {
			t.Fatalf("cycle %d: %v", i+1, err)
		}
	}
	perStage := (stackInuse() - before) / stages
	t.Logf("%d TCP stages after %d cycles: %d B of stack per stage", stages, cycles, perStage)
	if perStage > maxPerStage {
		t.Errorf("a TCP stage costs %d B of goroutine stack, want <= %d: a pump's stack has grown past its first size",
			perStage, maxPerStage)
	}
}

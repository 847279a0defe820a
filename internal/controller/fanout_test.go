package controller

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"github.com/dsrhaslab/sdscale/internal/rpc"
	"github.com/dsrhaslab/sdscale/internal/stage"
	"github.com/dsrhaslab/sdscale/internal/transport/simnet"
	"github.com/dsrhaslab/sdscale/internal/wire"
)

// startFakeStagesOn launches fake stage servers whose collect handler runs
// onCollect with the stage's index and then answers with an empty report.
func startFakeStagesOn(t *testing.T, n *simnet.Net, count int, onCollect func(i int)) []stage.Info {
	t.Helper()
	infos := make([]stage.Info, count)
	for i := range infos {
		id := uint64(i + 1)
		h := n.Host(fmt.Sprintf("stage-%d", i+1))
		srv, err := rpc.Serve(h, ":0", rpc.HandlerFunc(func(peer *rpc.Peer, req wire.Message) (wire.Message, error) {
			switch m := req.(type) {
			case *wire.Collect:
				onCollect(i)
				return &wire.CollectReply{Cycle: m.Cycle}, nil
			case *wire.Heartbeat:
				return &wire.HeartbeatAck{EchoUnixMicros: m.SentUnixMicros}, nil
			}
			return &wire.EnforceAck{}, nil
		}), rpc.ServerOptions{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		infos[i] = stage.Info{ID: id, JobID: 1, Weight: 1, Addr: srv.Addr().String()}
	}
	return infos
}

// startStuckStagesOn launches fake stage servers whose collect handler
// counts the call and then blocks until gate closes, so a fan-out stalls
// with its requests in flight.
func startStuckStagesOn(t *testing.T, n *simnet.Net, count int, gate chan struct{}, calls *atomic.Int64) []stage.Info {
	t.Helper()
	return startFakeStagesOn(t, n, count, func(int) {
		calls.Add(1)
		select {
		case <-gate:
		case <-time.After(10 * time.Second):
		}
	})
}

// startGlobalOver starts a Global with cfg on the "global" host of n and
// adds every stage in infos.
func startGlobalOver(t *testing.T, n *simnet.Net, cfg GlobalConfig, infos []stage.Info) *Global {
	t.Helper()
	cfg.Network = n.Host("global")
	g, err := StartGlobal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { g.Close() })
	for _, info := range infos {
		if err := g.AddStage(context.Background(), info); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

// TestBlockingWindowPeaksAtFanOut checks that blocking mode is FanOut
// issuers with one call in flight each: over 2,048 children, which pipelined
// mode would split into several issuers streaming hundreds of calls each,
// the collect phase's in-flight gauge peaks at exactly FanOut. The first
// FanOut collects wait for one another, so the peak is reached.
func TestBlockingWindowPeaksAtFanOut(t *testing.T) {
	const fanOut, stages = 8, 2048
	n := fastNet()
	var calls atomic.Int64
	wave := make(chan struct{})
	infos := startFakeStagesOn(t, n, stages, func(int) {
		switch c := calls.Add(1); {
		case c == fanOut:
			close(wave)
		case c < fanOut:
			select {
			case <-wave:
			case <-time.After(5 * time.Second):
			}
		}
	})
	g := startGlobalOver(t, n, GlobalConfig{FanOut: fanOut, FanOutMode: FanOutBlocking, CallTimeout: 10 * time.Second}, infos)
	if _, err := g.RunCycle(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != stages {
		t.Fatalf("collected %d stages, want %d", got, stages)
	}
	if peak := g.Pipeline().CollectInFlight.Peak(); peak != fanOut {
		t.Fatalf("collect in-flight peak = %d, want exactly FanOut = %d", peak, fanOut)
	}
}

// TestBlockingWindowDeadlinePerCall checks that a windowed issuer's deadline
// runs from each call's issue, as the prototype pool's CallTimeout does: a
// hung child holds its issuer for CallTimeout and is charged one failure,
// and the children after it in the same range are still collected and
// charged nothing. A deadline shared by the phase would have expired before
// they were issued.
func TestBlockingWindowDeadlinePerCall(t *testing.T) {
	const timeout = 200 * time.Millisecond
	n := fastNet()
	gate := make(chan struct{})
	defer close(gate)
	var collected atomic.Int64
	infos := startFakeStagesOn(t, n, 4, func(i int) {
		if i == 0 {
			<-gate
			return
		}
		time.Sleep(5 * time.Millisecond) // still in flight when its issuer waits
		collected.Add(1)
	})
	g := startGlobalOver(t, n, GlobalConfig{FanOut: 1, FanOutMode: FanOutBlocking, CallTimeout: timeout}, infos)
	start := time.Now()
	if _, err := g.RunCycle(context.Background()); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took < timeout {
		t.Fatalf("cycle took %v, under the hung child's CallTimeout %v", took, timeout)
	}
	if got := collected.Load(); got != 3 {
		t.Fatalf("collected %d of the 3 children after the hung one", got)
	}
	for i, info := range infos {
		want := int64(0)
		if i == 0 {
			want = 1
		}
		if got := g.members.get(info.ID).fails.Load(); got != want {
			t.Errorf("child %d charged %d failures, want %d", info.ID, got, want)
		}
	}
	if got := g.Stats().CallErrors; got != 1 {
		t.Fatalf("CallErrors = %d, want 1 (the hung child)", got)
	}
}

// TestCancelledCollectStopsFanOut checks the blocking fan-out stops issuing
// new child requests once the cycle context is cancelled: with 2 workers
// stuck in in-flight collects, cancelling mid-phase must abort the cycle
// without ever contacting the remaining stages.
func TestCancelledCollectStopsFanOut(t *testing.T) {
	n := fastNet()
	gate := make(chan struct{})
	defer close(gate)
	var calls atomic.Int64

	const stages = 8
	infos := startStuckStagesOn(t, n, stages, gate, &calls)

	g, err := StartGlobal(GlobalConfig{
		Network:     n.Host("global"),
		FanOut:      2,
		FanOutMode:  FanOutBlocking,
		CallTimeout: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { g.Close() })
	for _, info := range infos {
		if err := g.AddStage(context.Background(), info); err != nil {
			t.Fatal(err)
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := g.RunCycle(ctx)
		done <- err
	}()

	// Wait until both workers are stuck inside a collect, then cancel.
	deadline := time.Now().Add(5 * time.Second)
	for calls.Load() < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("fan-out never reached the stages (calls=%d)", calls.Load())
		}
		time.Sleep(time.Millisecond)
	}
	cancel()

	select {
	case err := <-done:
		if err == nil {
			t.Fatal("cancelled cycle reported success")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled cycle did not return")
	}
	// The two stuck calls were in flight; at most the workers' next pickups
	// may have squeaked through, but the issue loop must have stopped well
	// short of the full fleet.
	if got := calls.Load(); got >= stages {
		t.Fatalf("cancelled collect still contacted all %d stages", got)
	}
}

// TestCancelledPipelinedCollectReturnsPromptly checks the pipelined fan-out
// honours cancellation while responses are outstanding: with every collect
// stuck server-side and a long call timeout, cancelling must end the cycle
// immediately instead of waiting out the phase deadline.
func TestCancelledPipelinedCollectReturnsPromptly(t *testing.T) {
	n := fastNet()
	gate := make(chan struct{})
	defer close(gate)
	var calls atomic.Int64

	infos := startStuckStagesOn(t, n, 4, gate, &calls)

	g, err := StartGlobal(GlobalConfig{
		Network:     n.Host("global"),
		FanOutMode:  FanOutPipelined,
		CallTimeout: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { g.Close() })
	for _, info := range infos {
		if err := g.AddStage(context.Background(), info); err != nil {
			t.Fatal(err)
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := g.RunCycle(ctx)
		done <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for calls.Load() < 4 {
		if time.Now().After(deadline) {
			t.Fatalf("pipelined fan-out never reached the stages (calls=%d)", calls.Load())
		}
		time.Sleep(time.Millisecond)
	}
	cancelled := time.Now()
	cancel()

	select {
	case err := <-done:
		if err == nil {
			t.Fatal("cancelled cycle reported success")
		}
		if waited := time.Since(cancelled); waited > 5*time.Second {
			t.Fatalf("cancelled cycle took %v to return, should be immediate", waited)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled pipelined cycle did not return")
	}
}

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

// startStuckStagesOn launches fake stage servers whose collect handler
// counts the call and then blocks until gate closes, so a fan-out stalls
// with its requests in flight.
func startStuckStagesOn(t *testing.T, n *simnet.Net, count int, gate chan struct{}, calls *atomic.Int64) []stage.Info {
	t.Helper()
	infos := make([]stage.Info, count)
	for i := range infos {
		id := uint64(i + 1)
		h := n.Host(fmt.Sprintf("stage-%d", i+1))
		srv, err := rpc.Serve(h, ":0", rpc.HandlerFunc(func(peer *rpc.Peer, req wire.Message) (wire.Message, error) {
			switch m := req.(type) {
			case *wire.Collect:
				calls.Add(1)
				select {
				case <-gate:
				case <-time.After(10 * time.Second):
				}
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

// TestCancelledCollectStopsFanOut checks the Scatter-based blocking fan-out
// stops issuing new child requests once the cycle context is cancelled: with
// 2 workers stuck in in-flight collects, cancelling mid-phase must abort the
// cycle without ever contacting the remaining stages.
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

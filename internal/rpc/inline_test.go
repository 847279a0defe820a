package rpc

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/dsrhaslab/sdscale/internal/transport/simnet"
	"github.com/dsrhaslab/sdscale/internal/wire"
)

// TestInlineCancelFindsRequestAnswered is TestRecycledHandleNotPoisonedByLateResponse
// against an inline server, where the outcome is not a race but a rule: the
// reader answered the request before it read the cancel frame, so the cancel
// matches nothing, the server counts no withdrawal, and the client drops and
// counts every late response.
func TestInlineCancelFindsRequestAnswered(t *testing.T) {
	// A propagation delay keeps the response in flight while the client
	// abandons the call and recycles its handle.
	n := simnet.New(simnet.Config{PropDelay: 5 * time.Millisecond})
	srv, err := Serve(n.Host("server"), ":0", &echoHandler{}, ServerOptions{Inline: true})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := Dial(context.Background(), n.Host("client"), srv.Addr().String(), DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	const rounds = 20
	abandoned, cancel := context.WithCancel(context.Background())
	cancel() // already cancelled: Wait abandons without blocking
	for round := 0; round < rounds; round++ {
		callA := cli.Go(context.Background(), &wire.Heartbeat{SentUnixMicros: 1000 + int64(round)})
		if _, err := callA.Wait(abandoned); !errors.Is(err, context.Canceled) {
			t.Fatalf("round %d: abandoned Wait = %v, want context.Canceled", round, err)
		}
		callB := cli.Go(context.Background(), &wire.Heartbeat{SentUnixMicros: 2000 + int64(round)})
		resp, err := callB.Wait(context.Background())
		if err != nil {
			t.Fatalf("round %d: reused handle call: %v", round, err)
		}
		if got := resp.(*wire.HeartbeatAck).EchoUnixMicros; got != 2000+int64(round) {
			t.Fatalf("round %d: reused handle got reply %d, want %d (stale delivery)", round, got, 2000+round)
		}
	}
	// callB's reply travelled behind callA's on the same connection, so all
	// the late responses have been read by now.
	if got := cli.LateResponses(); got != rounds {
		t.Errorf("LateResponses = %d, want %d", got, rounds)
	}
	if _, err := cli.Call(context.Background(), &wire.Heartbeat{}); err != nil {
		t.Fatalf("connection unhealthy after %d abandoned calls: %v", rounds, err)
	}
	// Every cancel frame was written before a request that has been answered.
	if got := srv.CanceledRequests(); got != 0 {
		t.Errorf("CanceledRequests = %d, want 0: an inline connection has nothing a cancel can reach", got)
	}
}

// TestInlinePushInterleavesWithResponses hammers Peer.Push from a second
// goroutine while an inline connection streams float-bearing responses: the
// reader-written responses and the pushes meet on the peer's write lock, so
// frames never interleave, and a push (stateless) never advances the
// response history the replies are delta-coded against.
func TestInlinePushInterleavesWithResponses(t *testing.T) {
	var sent, pushed atomic.Int64
	onPush := func(m wire.Message) {
		d, ok := m.(*wire.ReportDelta)
		if !ok || d.Report.StageID != 7 || d.Report.Demand[0] != float64(d.Seq)*0.5 {
			t.Errorf("push decoded as %+v", m)
		}
		pushed.Add(1)
	}
	srv, cli := codecSetup(t, floatHandler{}, ServerOptions{Inline: true}, DialOptions{OnPush: onPush})
	// Dial returns before the server has registered the peer; a pusher
	// started earlier would count pushes to nobody.
	waitFor(t, "the server to register the peer", func() bool { return srv.NumPeers() == 1 })

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for seq := uint64(1); ; seq++ {
			select {
			case <-stop:
				return
			default:
			}
			m := &wire.ReportDelta{Seq: seq, Report: wire.StageReport{StageID: 7, Demand: wire.Rates{float64(seq) * 0.5}}}
			srv.ForEachPeer(func(p *Peer) {
				if err := p.Push(m); err != nil {
					t.Errorf("Push: %v", err)
				}
			})
			sent.Add(1)
		}
	}()
	// The calls below take a few milliseconds in all: without this wait they
	// can finish before the pusher is first scheduled, and nothing interleaves.
	waitFor(t, "the first push to reach the client", func() bool { return pushed.Load() > 0 })

	ctx := context.Background()
	const bursts, perBurst = 50, 40
	handles := make([]*Call, perBurst)
	for b := 0; b < bursts; b++ {
		for i := range handles {
			handles[i] = cli.Go(ctx, &wire.Collect{Cycle: uint64(b*perBurst + i + 1)})
		}
		for i, call := range handles {
			resp, err := call.Wait(ctx)
			if err != nil {
				t.Fatalf("burst %d call %d: %v", b, i, err)
			}
			f := float64(b*perBurst + i + 1)
			r := resp.(*wire.CollectReply)
			want := wire.StageReport{StageID: 1, JobID: 1, Demand: wire.Rates{f * 1.5, 100}, Usage: wire.Rates{f, 99.25}}
			if len(r.Reports) != 2 || r.Reports[0] != want {
				t.Fatalf("burst %d call %d: reply %+v, want first report %+v (history out of step)", b, i, r, want)
			}
		}
	}
	close(stop)
	wg.Wait()
	waitFor(t, "every push written to reach the client", func() bool { return pushed.Load() == sent.Load() })
}

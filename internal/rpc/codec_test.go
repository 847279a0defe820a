package rpc

import (
	"context"
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/dsrhaslab/sdscale/internal/telemetry"
	"github.com/dsrhaslab/sdscale/internal/trace"
	"github.com/dsrhaslab/sdscale/internal/transport/simnet"
	"github.com/dsrhaslab/sdscale/internal/wire"
)

// codecSetup dials a fresh server with the given options and returns the
// client. Both ends use the in-memory simnet.
func codecSetup(t *testing.T, h Handler, sopts ServerOptions, dopts DialOptions) (*Server, *Client) {
	t.Helper()
	n := simnet.New(simnet.Config{PropDelay: -1})
	srv, err := Serve(n.Host("server"), ":0", h, sopts)
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	t.Cleanup(func() { srv.Close() })
	cli, err := Dial(context.Background(), n.Host("client"), srv.Addr().String(), dopts)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	t.Cleanup(func() { cli.Close() })
	return srv, cli
}

// floatHandler returns replies with float-heavy payloads so the v2 response
// history is exercised across many messages.
type floatHandler struct{}

func (floatHandler) Serve(_ *Peer, req wire.Message) (wire.Message, error) {
	c := req.(*wire.Collect)
	f := float64(c.Cycle)
	return &wire.CollectReply{Cycle: c.Cycle, Reports: []wire.StageReport{
		{StageID: 1, JobID: 1, Demand: wire.Rates{f * 1.5, 100}, Usage: wire.Rates{f, 99.25}},
		{StageID: 2, JobID: 1, Demand: wire.Rates{f * 1.5, 100}, Usage: wire.Rates{f, 0}},
	}}, nil
}

// TestCodecV2FloatDataCorrectness streams many float-bearing replies over one
// connection: the delta-coded response history must reconstruct
// every value exactly, including across repeated and changing payloads.
func TestCodecV2FloatDataCorrectness(t *testing.T) {
	t.Run("inline", func(t *testing.T) {
		_, cli := codecSetup(t, floatHandler{}, ServerOptions{}, DialOptions{})
		for i := 0; i < 50; i++ {
			cycle := uint64(i/10 + 1) // repeats make the history hit f2Same runs
			resp, err := cli.Call(context.Background(), &wire.Collect{Cycle: cycle})
			if err != nil {
				t.Fatalf("call %d: %v", i, err)
			}
			r := resp.(*wire.CollectReply)
			f := float64(cycle)
			want := []wire.StageReport{
				{StageID: 1, JobID: 1, Demand: wire.Rates{f * 1.5, 100}, Usage: wire.Rates{f, 99.25}},
				{StageID: 2, JobID: 1, Demand: wire.Rates{f * 1.5, 100}, Usage: wire.Rates{f, 0}},
			}
			if len(r.Reports) != len(want) {
				t.Fatalf("call %d: %d reports", i, len(r.Reports))
			}
			for j := range want {
				if r.Reports[j] != want[j] {
					t.Fatalf("call %d report %d: got %+v, want %+v", i, j, r.Reports[j], want[j])
				}
			}
		}
	})
}

// aggReply is the CollectAggReply a Collect for cycle is answered with in
// TestAggReplyHistoryAcrossSizes: 2,500 job reports on odd cycles and 10 on
// even ones, with floats that repeat, step and change between cycles.
func aggReply(cycle uint64) *wire.CollectAggReply {
	n := 10
	if cycle%2 == 1 {
		n = 2500
	}
	jobs := make([]wire.JobReport, n)
	for i := range jobs {
		f := float64(i)
		jobs[i] = wire.JobReport{JobID: uint64(i + 1), Stages: 4,
			Demand: wire.Rates{f*1.5 + float64(cycle/3), 100},
			Usage:  wire.Rates{f + 0.25, float64(cycle)}}
	}
	return &wire.CollectAggReply{Cycle: cycle, AggregatorID: 7, Jobs: jobs}
}

// TestAggReplyHistoryAcrossSizes sends an aggregator's 2,500-report reply,
// then a 10-report one, then both again, over one connection: the response
// history must shrink to the short reply's floats and grow back past them,
// on both ends, with every float decoded exactly.
func TestAggReplyHistoryAcrossSizes(t *testing.T) {
	h := HandlerFunc(func(_ *Peer, req wire.Message) (wire.Message, error) {
		return aggReply(req.(*wire.Collect).Cycle), nil
	})
	_, cli := codecSetup(t, h, ServerOptions{}, DialOptions{ReuseReplies: true})
	for cycle := uint64(1); cycle <= 4; cycle++ {
		resp, err := cli.Call(context.Background(), &wire.Collect{Cycle: cycle})
		if err != nil {
			t.Fatalf("cycle %d: %v", cycle, err)
		}
		got, want := resp.(*wire.CollectAggReply), aggReply(cycle)
		if got.Cycle != want.Cycle || len(got.Jobs) != len(want.Jobs) {
			t.Fatalf("cycle %d: cycle %d with %d jobs, want %d", cycle, got.Cycle, len(got.Jobs), len(want.Jobs))
		}
		for i := range want.Jobs {
			if got.Jobs[i] != want.Jobs[i] {
				t.Fatalf("cycle %d job %d: got %+v, want %+v", cycle, i, got.Jobs[i], want.Jobs[i])
			}
		}
	}
}

// TestReplyReuseContract: with ReuseReplies on, successive replies of the
// same type decode into the same cached message (hits counted), so a caller
// holding a reply across calls sees it overwritten — the documented aliasing
// contract.
func TestReplyReuseContract(t *testing.T) {
	var hits telemetry.Counter
	_, cli := codecSetup(t, floatHandler{}, ServerOptions{},
		DialOptions{ReuseReplies: true, ReuseHits: &hits})
	r1, err := cli.Call(context.Background(), &wire.Collect{Cycle: 1})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := cli.Call(context.Background(), &wire.Collect{Cycle: 2})
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Fatalf("reuse did not return the cached reply: %p vs %p", r1, r2)
	}
	if r1.(*wire.CollectReply).Cycle != 2 {
		t.Fatalf("cached reply holds cycle %d, want 2 (overwritten)", r1.(*wire.CollectReply).Cycle)
	}
	if hits.Load() == 0 {
		t.Fatal("no reuse hits counted")
	}
}

// TestRequestReuseFreelist: with ReuseRequests on, the server decodes
// successive requests of one type into a recycled message.
func TestRequestReuseFreelist(t *testing.T) {
	t.Run("inline", func(t *testing.T) {
		var hits telemetry.Counter
		_, cli := codecSetup(t, &echoHandler{}, ServerOptions{ReuseRequests: true, ReuseHits: &hits}, DialOptions{})
		for i := uint64(1); i <= 10; i++ {
			if _, err := cli.Call(context.Background(), &wire.Collect{Cycle: i}); err != nil {
				t.Fatalf("call %d: %v", i, err)
			}
		}
		if hits.Load() == 0 {
			t.Fatal("no request freelist hits counted")
		}
	})
}

// TestReuseTablesGrowOnFirstUse: the per-connection reuse tables are slices
// indexed by message type and grown on first use. The first exchange on a
// fresh connection using the highest reusable request and reply types, and a
// frame whose type byte names no message, must neither panic nor change what
// is decoded.
func TestReuseTablesGrowOnFirstUse(t *testing.T) {
	ctx := context.Background()
	n := simnet.New(simnet.Config{PropDelay: -1})
	srv, err := Serve(n.Host("server"), ":0", HandlerFunc(func(_ *Peer, req wire.Message) (wire.Message, error) {
		switch m := req.(type) {
		case *wire.Delegate: // the highest reusable request; answered with the highest reusable reply
			return &wire.PeerExchangeAck{Cycle: m.Cycle, PeerID: uint64(len(m.Budgets))}, nil
		case *wire.Collect:
			return &wire.CollectReply{Cycle: m.Cycle}, nil
		}
		return nil, fmt.Errorf("unexpected %s", req.Type())
	}), ServerOptions{ReuseRequests: true})
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	defer srv.Close()
	cli, err := Dial(ctx, n.Host("client"), srv.Addr().String(), DialOptions{ReuseReplies: true})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cli.Close()
	exchange := func(i uint64) {
		t.Helper()
		resp, err := cli.Call(ctx, &wire.Delegate{Cycle: i, Budgets: make([]wire.JobBudget, i)})
		if ack, ok := resp.(*wire.PeerExchangeAck); err != nil || !ok || ack.Cycle != i || ack.PeerID != i {
			t.Fatalf("delegate %d: got %+v, %v", i, resp, err)
		}
		resp, err = cli.Call(ctx, &wire.Collect{Cycle: i})
		if r, ok := resp.(*wire.CollectReply); err != nil || !ok || r.Cycle != i {
			t.Fatalf("collect %d: got %+v, %v", i, resp, err)
		}
	}
	exchange(1)
	exchange(2)

	// A request whose type byte names no message is protocol corruption: the
	// server drops that connection, and only that one.
	raw, err := n.Host("intruder").Dial(ctx, srv.Addr().String())
	if err != nil {
		t.Fatalf("raw dial: %v", err)
	}
	defer raw.Close()
	if _, err := raw.Write(appendSharedFrame(nil, frameHeader{id: 1, kind: kindRequest}, []byte{0xFF})); err != nil {
		t.Fatalf("raw write: %v", err)
	}
	if b, err := io.ReadAll(raw); err != nil || len(b) != 0 {
		t.Fatalf("server answered an unknown request type with %d bytes, %v; want the connection closed", len(b), err)
	}
	exchange(3)

	// The same byte in a response or a push kills the client's connection
	// with the decode error it always did.
	for _, kind := range []byte{kindResponse, kindPush} {
		l, err := n.Host("rogue").Listen(":0")
		if err != nil {
			t.Fatal(err)
		}
		go func() {
			c, err := l.Accept()
			if err != nil {
				return
			}
			_, _ = c.Write(appendSharedFrame(nil, frameHeader{id: 1, kind: kind}, []byte{0xFF}))
		}()
		victim, err := Dial(ctx, n.Host("victim"), l.Addr().String(),
			DialOptions{ReuseReplies: true, OnPush: func(wire.Message) {}})
		if err != nil {
			t.Fatalf("Dial: %v", err)
		}
		_, err = victim.Call(ctx, &wire.Heartbeat{})
		if err == nil || !strings.Contains(err.Error(), "unknown message type 255") {
			t.Errorf("frame kind %d with an unknown type: call failed with %v, want the decode error", kind, err)
		}
		victim.Close()
		l.Close()
	}
}

// TestDialBuildsClientBeforeReading: a server that speaks before it reads —
// here a push frame and a response written the moment the connection is
// accepted — reaches the client's reader while Dial is still running. The
// reader reads the push callback, the reply-reuse settings and the tracer,
// so Dial must have set them all before it starts its reads; under -race a
// Dial that sets a field after starting them is reported.
func TestDialBuildsClientBeforeReading(t *testing.T) {
	n := simnet.New(simnet.Config{PropDelay: -1})
	l, err := n.Host("eager").Listen(":0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	eager := appendFrame(nil, frameHeader{kind: kindPush}, &wire.ReportDelta{Seq: 1}, nil)
	eager = appendFrame(eager, frameHeader{id: 99, kind: kindResponse}, &wire.CollectReply{Cycle: 1}, wire.NewFloatHistory())
	go func() {
		if c, err := l.Accept(); err == nil {
			_, _ = c.Write(eager)
		}
	}()
	var (
		hits   telemetry.Counter
		pushes atomic.Int64
	)
	cli, err := Dial(context.Background(), n.Host("client"), l.Addr().String(), DialOptions{
		Tracer:       trace.New(16),
		ReuseReplies: true,
		ReuseHits:    &hits,
		OnPush:       func(wire.Message) { pushes.Add(1) },
	})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cli.Close()
	waitFor(t, "the eager push and the unmatched response", func() bool {
		return pushes.Load() == 1 && cli.late.Load() == 1
	})
}

// TestInlinePushInterleavesWithResponses hammers Peer.Push from a second
// goroutine while a connection streams float-bearing responses, each written
// by the goroutine that read its request: the responses and the pushes meet
// on the peer's write lock, so frames never interleave, and a push
// (stateless) never advances the response history the replies are
// delta-coded against.
func TestInlinePushInterleavesWithResponses(t *testing.T) {
	var sent, pushed atomic.Int64
	onPush := func(m wire.Message) {
		d, ok := m.(*wire.ReportDelta)
		if !ok || d.Report.StageID != 7 || d.Report.Demand[0] != float64(d.Seq)*0.5 {
			t.Errorf("push decoded as %+v", m)
		}
		pushed.Add(1)
	}
	srv, cli := codecSetup(t, floatHandler{}, ServerOptions{}, DialOptions{OnPush: onPush})
	// Dial returns before the server has registered the peer; a pusher
	// started earlier would count pushes to nobody.
	waitFor(t, "the server to register the peer", func() bool { return peerCount(srv) == 1 })

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

package rpc

import (
	"context"
	"fmt"
	"io"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/dsrhaslab/sdscale/internal/trace"
	"github.com/dsrhaslab/sdscale/internal/transport"
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

// TestCodecNegotiationUpgrades: a v2 client against a v2 server upgrades to
// the v2 codec, and calls keep round-tripping before, across, and after the
// upgrade (the hello ack can race the first request).
func TestCodecNegotiationUpgrades(t *testing.T) {
	eachDiscipline(t, func(t *testing.T, sopts ServerOptions) {
		_, cli := codecSetup(t, &echoHandler{}, sopts, DialOptions{})
		for i := uint64(1); i <= 5; i++ {
			resp, err := cli.Call(context.Background(), &wire.Collect{Cycle: i})
			if err != nil {
				t.Fatalf("call %d: %v", i, err)
			}
			if r := resp.(*wire.CollectReply); r.Cycle != i {
				t.Fatalf("call %d: cycle %d", i, r.Cycle)
			}
		}
		waitFor(t, "codec upgrade to v2", func() bool {
			return cli.CodecVersion() == wire.CodecV2
		})
		if _, err := cli.Call(context.Background(), &wire.Collect{Cycle: 99}); err != nil {
			t.Fatalf("post-upgrade call: %v", err)
		}
	})
}

// TestCodecNegotiationV1Client: a client that sends no hello (NewClient over
// a raw connection) stays on the baseline codec against a server that would
// have upgraded it.
func TestCodecNegotiationV1Client(t *testing.T) {
	eachDiscipline(t, func(t *testing.T, sopts ServerOptions) {
		n := simnet.New(simnet.Config{PropDelay: -1})
		srv, err := Serve(n.Host("server"), ":0", &echoHandler{}, sopts)
		if err != nil {
			t.Fatalf("Serve: %v", err)
		}
		defer srv.Close()
		conn, err := n.Host("client").Dial(context.Background(), srv.Addr().String())
		if err != nil {
			t.Fatalf("Dial: %v", err)
		}
		cli := NewClient(conn)
		defer cli.Close()
		for i := uint64(1); i <= 3; i++ {
			if _, err := cli.Call(context.Background(), &wire.Collect{Cycle: i}); err != nil {
				t.Fatalf("call %d: %v", i, err)
			}
		}
		if v := cli.CodecVersion(); v != wire.CodecV1 {
			t.Fatalf("hello-less client negotiated v%d", v)
		}
		srv.ForEachPeer(func(p *Peer) {
			if p.CanPush() {
				t.Error("CanPush on a connection that never sent a hello")
			}
		})
	})
}

// dropHellos listens on a fresh address and relays every frame between the
// connections it accepts and the server at backend, except hello frames,
// which it drops in both directions: to a dialing client the pair is a peer
// that does not upgrade — it ignores the frame kind it does not know and
// answers baseline requests with baseline responses.
func dropHellos(t *testing.T, n *simnet.Net, backend string) string {
	t.Helper()
	host := n.Host("relay")
	l, err := host.Listen(":0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	t.Cleanup(func() { l.Close() })
	relay := func(dst, src net.Conn) {
		defer dst.Close()
		defer src.Close()
		var buf []byte
		for {
			h, body, b, err := readFrame(src, buf)
			if buf = b; err != nil {
				return
			}
			if h.kind == kindHello {
				continue
			}
			if _, err := dst.Write(appendSharedFrame(nil, h, body)); err != nil {
				return
			}
		}
	}
	go func() {
		for {
			down, err := l.Accept()
			if err != nil {
				return
			}
			up, err := host.Dial(context.Background(), backend)
			if err != nil {
				down.Close()
				return
			}
			go relay(up, down)
			go relay(down, up)
		}
	}()
	return l.Addr().String()
}

// TestCodecNegotiationV1Server: a peer that never acks the client's hello —
// exactly what a pre-v2 server does with an unknown frame kind — leaves the
// client on the baseline codec, and calls still work.
func TestCodecNegotiationV1Server(t *testing.T) {
	eachDiscipline(t, func(t *testing.T, sopts ServerOptions) {
		n := simnet.New(simnet.Config{PropDelay: -1})
		srv, err := Serve(n.Host("server"), ":0", &echoHandler{}, sopts)
		if err != nil {
			t.Fatalf("Serve: %v", err)
		}
		defer srv.Close()
		cli, err := Dial(context.Background(), n.Host("client"), dropHellos(t, n, srv.Addr().String()), DialOptions{})
		if err != nil {
			t.Fatalf("Dial: %v", err)
		}
		defer cli.Close()
		for i := uint64(1); i <= 3; i++ {
			if _, err := cli.Call(context.Background(), &wire.Collect{Cycle: i}); err != nil {
				t.Fatalf("call %d: %v", i, err)
			}
		}
		if v := cli.CodecVersion(); v != wire.CodecV1 {
			t.Fatalf("client negotiated v%d against a peer that never acked its hello", v)
		}
	})
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

// TestCodecV2FloatDataCorrectness streams many float-bearing replies over an
// upgraded connection: the delta-coded response history must reconstruct
// every value exactly, including across repeated and changing payloads.
func TestCodecV2FloatDataCorrectness(t *testing.T) {
	eachDiscipline(t, func(t *testing.T, sopts ServerOptions) {
		_, cli := codecSetup(t, floatHandler{}, sopts, DialOptions{})
		waitFor(t, "codec upgrade to v2", func() bool {
			return cli.CodecVersion() == wire.CodecV2
		})
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

// TestReplyReuseContract: with ReuseReplies on, successive replies of the
// same type decode into the same cached message (hits counted), so a caller
// holding a reply across calls sees it overwritten — the documented aliasing
// contract.
func TestReplyReuseContract(t *testing.T) {
	var hits atomic.Uint64
	_, cli := codecSetup(t, floatHandler{}, ServerOptions{},
		DialOptions{ReuseReplies: true, ReuseHits: &hits})
	waitFor(t, "codec upgrade to v2", func() bool {
		return cli.CodecVersion() == wire.CodecV2
	})
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
	eachDiscipline(t, func(t *testing.T, sopts ServerOptions) {
		var hits atomic.Uint64
		sopts.ReuseRequests, sopts.ReuseHits = true, &hits
		_, cli := codecSetup(t, &echoHandler{}, sopts, DialOptions{})
		waitFor(t, "codec upgrade to v2", func() bool {
			return cli.CodecVersion() == wire.CodecV2
		})
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
	waitFor(t, "codec upgrade to v2", func() bool { return cli.CodecVersion() == wire.CodecV2 })
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
	if _, err := raw.Write(appendSharedFrame(nil, frameHeader{id: 1, kind: kindRequestV2}, []byte{0xFF})); err != nil {
		t.Fatalf("raw write: %v", err)
	}
	if b, err := io.ReadAll(raw); err != nil || len(b) != 0 {
		t.Fatalf("server answered an unknown request type with %d bytes, %v; want the connection closed", len(b), err)
	}
	exchange(3)

	// The same byte in a response or a push kills the client's connection
	// with the decode error it always did.
	for _, kind := range []byte{kindResponseV2, kindPush} {
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

// gatedNet dials connections that hold back every client write — Dial's hello
// is the first — until the client's read loop has consumed the first `eager`
// bytes the server sent and come back for more.
type gatedNet struct {
	transport.Network
	eager int
}

func (g gatedNet) Dial(ctx context.Context, addr string) (net.Conn, error) {
	c, err := g.Network.Dial(ctx, addr)
	if err != nil {
		return nil, err
	}
	return &gatedConn{Conn: c, left: g.eager, consumed: make(chan struct{})}, nil
}

type gatedConn struct {
	net.Conn
	left     int // read loop only
	consumed chan struct{}
}

func (c *gatedConn) Read(p []byte) (int, error) {
	if c.left == 0 {
		close(c.consumed)
		c.left = -1
	}
	n, err := c.Conn.Read(p)
	if c.left > 0 {
		c.left -= n
	}
	return n, err
}

func (c *gatedConn) Write(p []byte) (int, error) {
	select {
	case <-c.consumed:
	case <-time.After(5 * time.Second): // the test then fails on what it waits for
	}
	return c.Conn.Write(p)
}

// TestDialBuildsClientBeforeReading: a server that speaks before it reads —
// here a push frame and a v2 response written the moment the connection is
// accepted — reaches the client's read loop while Dial is still running. The
// loop reads the push callback, the reply-reuse settings and the tracer, so
// Dial must have set them all before it starts the loop. The gate makes the
// loop process both frames before Dial gets as far as its hello, so that
// under -race a Dial that sets a field after starting the loop is always
// reported, not only when the scheduler happens to run the loop first.
func TestDialBuildsClientBeforeReading(t *testing.T) {
	n := simnet.New(simnet.Config{PropDelay: -1})
	l, err := n.Host("eager").Listen(":0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	eager := appendFrameWith(nil, frameHeader{kind: kindPush}, &wire.ReportDelta{Seq: 1}, wire.CodecV2, nil)
	eager = appendFrameWith(eager, frameHeader{id: 99, kind: kindResponseV2}, &wire.CollectReply{Cycle: 1}, wire.CodecV2, wire.NewFloatHistory())
	go func() {
		if c, err := l.Accept(); err == nil {
			_, _ = c.Write(eager)
		}
	}()
	var (
		hits   atomic.Uint64
		pushes atomic.Int64
	)
	cli, err := Dial(context.Background(), gatedNet{n.Host("client"), len(eager)}, l.Addr().String(), DialOptions{
		Tracer:       trace.New(16),
		ReuseReplies: true,
		ReuseHits:    &hits,
		OnPush:       func(wire.Message) { pushes.Add(1) },
	})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cli.Close()
	// The gate opened, so both frames were read before Dial returned.
	if pushes.Load() != 1 || cli.LateResponses() != 1 {
		t.Errorf("read loop saw %d pushes and %d unmatched responses before the hello, want 1 and 1",
			pushes.Load(), cli.LateResponses())
	}
}

package rpc

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/iotest"
	"testing/quick"
	"time"

	"github.com/dsrhaslab/sdscale/internal/transport"
	"github.com/dsrhaslab/sdscale/internal/transport/simnet"
	"github.com/dsrhaslab/sdscale/internal/transport/tcpnet"
	"github.com/dsrhaslab/sdscale/internal/wire"
)

// echoHandler answers heartbeats and collects, and errors on enforce.
type echoHandler struct {
	collects atomic.Int64
}

func (h *echoHandler) Serve(peer *Peer, req wire.Message) (wire.Message, error) {
	switch m := req.(type) {
	case *wire.Heartbeat:
		return &wire.HeartbeatAck{EchoUnixMicros: m.SentUnixMicros}, nil
	case *wire.Collect:
		h.collects.Add(1)
		return &wire.CollectReply{Cycle: m.Cycle}, nil
	case *wire.Enforce:
		return nil, errors.New("enforce rejected")
	case *wire.Register:
		return &wire.RegisterAck{ID: m.ID}, nil
	}
	return nil, fmt.Errorf("unexpected %s", req.Type())
}

// testSetup builds a simnet, a server on "server", and a client on "client".
func testSetup(t *testing.T, h Handler) (*simnet.Net, *Server, *Client) {
	t.Helper()
	n := simnet.New(simnet.Config{PropDelay: -1})
	srv, err := Serve(n.Host("server"), ":0", h, ServerOptions{})
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	t.Cleanup(func() { srv.Close() })
	cli, err := Dial(context.Background(), n.Host("client"), srv.Addr().String(), DialOptions{})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	t.Cleanup(func() { cli.Close() })
	return n, srv, cli
}

// Tests that once ran against both serving disciplines keep their "inline"
// subtest: it names the only discipline, where the goroutine that reads a
// request answers it.

func TestCallRoundTrip(t *testing.T) {
	t.Run("inline", func(t *testing.T) {
		_, cli := codecSetup(t, &echoHandler{}, ServerOptions{}, DialOptions{})
		resp, err := cli.Call(context.Background(), &wire.Heartbeat{SentUnixMicros: 77})
		if err != nil {
			t.Fatalf("Call: %v", err)
		}
		ack, ok := resp.(*wire.HeartbeatAck)
		if !ok {
			t.Fatalf("response type = %T", resp)
		}
		if ack.EchoUnixMicros != 77 {
			t.Errorf("echo = %d, want 77", ack.EchoUnixMicros)
		}
	})
}

func TestCallRemoteError(t *testing.T) {
	t.Run("inline", func(t *testing.T) {
		_, cli := codecSetup(t, &echoHandler{}, ServerOptions{}, DialOptions{})
		_, err := cli.Call(context.Background(), &wire.Enforce{Cycle: 1})
		var er *wire.ErrorReply
		if !errors.As(err, &er) {
			t.Fatalf("Call error = %v, want *wire.ErrorReply", err)
		}
		if er.Text != "enforce rejected" {
			t.Errorf("error text = %q", er.Text)
		}
	})
}

func TestConcurrentCallsMultiplexed(t *testing.T) {
	t.Run("inline", func(t *testing.T) {
		_, cli := codecSetup(t, &echoHandler{}, ServerOptions{}, DialOptions{})
		const calls = 100
		var wg sync.WaitGroup
		for i := 0; i < calls; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				resp, err := cli.Call(context.Background(), &wire.Heartbeat{SentUnixMicros: int64(i)})
				if err != nil {
					t.Errorf("call %d: %v", i, err)
					return
				}
				if got := resp.(*wire.HeartbeatAck).EchoUnixMicros; got != int64(i) {
					t.Errorf("call %d echoed %d", i, got)
				}
			}(i)
		}
		wg.Wait()
	})
}

// TestPipelinedBurstOrdered: 1,000 requests pipelined on one connection are
// dispatched in issue order and each handle gets its own reply.
func TestPipelinedBurstOrdered(t *testing.T) {
	t.Run("inline", func(t *testing.T) {
		const calls = 1000
		var seen []uint64 // per-connection dispatch is serial, so no lock
		h := HandlerFunc(func(_ *Peer, req wire.Message) (wire.Message, error) {
			c := req.(*wire.Collect)
			seen = append(seen, c.Cycle)
			return floatHandler{}.Serve(nil, c)
		})
		_, cli := codecSetup(t, h, ServerOptions{}, DialOptions{})
		ctx := context.Background()
		handles := make([]*Call, calls)
		for i := range handles {
			handles[i] = cli.Go(ctx, &wire.Collect{Cycle: uint64(i + 1)})
		}
		for i, call := range handles {
			resp, err := call.Wait(ctx)
			if err != nil {
				t.Fatalf("call %d: %v", i, err)
			}
			r := resp.(*wire.CollectReply)
			if r.Cycle != uint64(i+1) || r.Reports[0].Usage[0] != float64(i+1) {
				t.Fatalf("call %d got cycle %d usage %v", i, r.Cycle, r.Reports[0].Usage[0])
			}
		}
		// The last Wait returned after the last handler ran: seen is quiescent.
		if len(seen) != calls {
			t.Fatalf("handler ran %d times, want %d", len(seen), calls)
		}
		for i, c := range seen {
			if c != uint64(i+1) {
				t.Fatalf("dispatch %d was request %d: out of order", i, c)
			}
		}
	})
}

func TestCallContextTimeout(t *testing.T) {
	// A handler that blocks until the server closes.
	block := make(chan struct{})
	h := HandlerFunc(func(peer *Peer, req wire.Message) (wire.Message, error) {
		<-block
		return &wire.HeartbeatAck{}, nil
	})
	_, _, cli := testSetup(t, h)
	defer close(block)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	_, err := cli.Call(ctx, &wire.Heartbeat{})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Call = %v, want DeadlineExceeded", err)
	}
}

func TestPendingCallsFailOnDisconnect(t *testing.T) {
	block := make(chan struct{})
	h := HandlerFunc(func(peer *Peer, req wire.Message) (wire.Message, error) {
		<-block
		return &wire.HeartbeatAck{}, nil
	})
	_, srv, cli := testSetup(t, h)
	defer close(block)

	errc := make(chan error, 1)
	go func() {
		_, err := cli.Call(context.Background(), &wire.Heartbeat{})
		errc <- err
	}()
	time.Sleep(20 * time.Millisecond)
	srv.Close()
	select {
	case err := <-errc:
		if err == nil {
			t.Fatal("pending call succeeded after server close")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("pending call hung after server close")
	}
}

func TestCallsAfterClientClose(t *testing.T) {
	_, _, cli := testSetup(t, &echoHandler{})
	cli.Close()
	if _, err := cli.Call(context.Background(), &wire.Heartbeat{}); err == nil {
		t.Fatal("Call on closed client succeeded")
	}
}

func TestHandlerPanicIsolated(t *testing.T) {
	t.Run("inline", func(t *testing.T) {
		h := HandlerFunc(func(peer *Peer, req wire.Message) (wire.Message, error) {
			if _, ok := req.(*wire.Collect); ok {
				panic("boom")
			}
			return &wire.HeartbeatAck{}, nil
		})
		_, cli := codecSetup(t, h, ServerOptions{}, DialOptions{})
		_, err := cli.Call(context.Background(), &wire.Collect{})
		var er *wire.ErrorReply
		if !errors.As(err, &er) || er.Code != wire.CodeInternal {
			t.Fatalf("panicking handler returned %v", err)
		}
		// The connection must survive the panic.
		if _, err := cli.Call(context.Background(), &wire.Heartbeat{}); err != nil {
			t.Fatalf("call after panic: %v", err)
		}
	})
}

func TestNilResponseBecomesError(t *testing.T) {
	t.Run("inline", func(t *testing.T) {
		h := HandlerFunc(func(peer *Peer, req wire.Message) (wire.Message, error) {
			return nil, nil
		})
		_, cli := codecSetup(t, h, ServerOptions{}, DialOptions{})
		_, err := cli.Call(context.Background(), &wire.Heartbeat{})
		var er *wire.ErrorReply
		if !errors.As(err, &er) {
			t.Fatalf("nil handler response returned %v", err)
		}
	})
}

// peerCount returns the number of peers connected to s.
func peerCount(s *Server) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.peers)
}

func TestServerNumPeersAndOnDisconnect(t *testing.T) {
	t.Run("inline", func(t *testing.T) {
		var disconnects atomic.Int64
		onDisconnect := func(*Peer) { disconnects.Add(1) }
		srv, cli := codecSetup(t, &echoHandler{}, ServerOptions{OnDisconnect: onDisconnect}, DialOptions{})
		if _, err := cli.Call(context.Background(), &wire.Heartbeat{}); err != nil {
			t.Fatal(err)
		}
		if got := peerCount(srv); got != 1 {
			t.Errorf("NumPeers = %d, want 1", got)
		}
		cli.Close()
		waitFor(t, "OnDisconnect", func() bool { return disconnects.Load() == 1 })
		// Close and Wait return once every connection goroutine is gone, so a
		// second OnDisconnect for the same peer would have run by now.
		srv.Close()
		srv.Wait()
		if got := disconnects.Load(); got != 1 {
			t.Errorf("OnDisconnect ran %d times for one peer", got)
		}
	})
}

// goroutinesIn counts, by their stacks, the goroutines of this process that
// are inside fn.
func goroutinesIn(fn string) int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	n := 0
	for _, g := range bytes.Split(buf, []byte("\n\n")) {
		if bytes.Contains(g, []byte(fn)) {
			n++
		}
	}
	return n
}

// pumps counts the goroutines that read an rpc connection: on a server, one
// per connection it does not serve inline; on a client, one per connection
// that does not hand its reads off.
func pumps() int { return goroutinesIn("rpc.pump(") }

// TestServerAcceptLoopOnlyWithoutHandoff: a server on a simnet listener is
// handed each connection by its dialer and runs no goroutine of its own
// besides one per connection; a server on a TCP listener, which cannot hand
// off, keeps one accept loop.
func TestServerAcceptLoopOnlyWithoutHandoff(t *testing.T) {
	const loop = "rpc.(*Server).acceptLoop"
	base := goroutinesIn(loop)
	n := simnet.New(simnet.Config{PropDelay: -1})
	srv, err := Serve(n.Host("server"), ":0", &echoHandler{}, ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for i := 0; i < 3; i++ {
		cli, err := Dial(context.Background(), n.Host("client"), srv.Addr().String(), DialOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer cli.Close()
		if _, err := cli.Call(context.Background(), &wire.Heartbeat{}); err != nil {
			t.Fatal(err)
		}
	}
	if got := peerCount(srv); got != 3 {
		t.Fatalf("simnet server holds %d peers, want 3", got)
	}
	if got := goroutinesIn(loop); got != base {
		t.Fatalf("a simnet server added %d accept loops, want none", got-base)
	}

	tsrv, err := Serve(tcpnet.New(), "127.0.0.1:0", &echoHandler{}, ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// The loop may not have been scheduled yet.
	waitFor(t, "a TCP server's accept loop", func() bool { return goroutinesIn(loop) == base+1 })
	tsrv.Close()
	tsrv.Wait()
	// Wait returns once acceptLoop's deferred Done has run, which is still
	// inside acceptLoop's frame: the goroutine leaves the stack dump a
	// moment later.
	waitFor(t, "the accept loop to exit after Close and Wait", func() bool { return goroutinesIn(loop) == base })
}

// TestServerCloseRacingHandoffs: dials racing a simnet server's Close are
// each either served and then severed by Close, or refused. After Close and
// Wait no connection is left open or served.
func TestServerCloseRacingHandoffs(t *testing.T) {
	n := simnet.New(simnet.Config{PropDelay: -1, MaxConnsPerHost: -1})
	srv, err := Serve(n.Host("server"), ":0", &echoHandler{}, ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr().String()
	const dialers, dials = 4, 50
	var wg sync.WaitGroup
	var started atomic.Int64
	conns := make(chan net.Conn, dialers*dials)
	for i := 0; i < dialers; i++ {
		wg.Add(1)
		go func(h *simnet.Host) {
			defer wg.Done()
			for j := 0; j < dials; j++ {
				started.Add(1)
				c, err := h.Dial(context.Background(), addr)
				if err != nil {
					if !errors.Is(err, simnet.ErrConnRefused) {
						t.Errorf("dial: %v", err)
					}
					continue
				}
				conns <- c
			}
		}(n.Host(fmt.Sprintf("client%d", i)))
	}
	waitFor(t, "dials to start", func() bool { return started.Load() >= dialers*dials/4 })
	srv.Close()
	srv.Wait()
	wg.Wait()
	close(conns)
	// Wait returns once every pump has handed over its connection's end; one
	// may still be unwinding, and an earlier test's may still be exiting.
	waitFor(t, "pumps to exit", func() bool { return pumps() == 0 })
	if got := n.Host("server").ConnCount(); got != 0 {
		t.Errorf("the server host holds %d connections after Close, want 0", got)
	}
	for c := range conns {
		c.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, err := c.Read(make([]byte, 1)); !errors.Is(err, io.EOF) {
			t.Errorf("read on a connection the server closed = %v, want EOF", err)
		}
		c.Close()
	}
}

// TestCloseWaitDrainsOpenConnections: each accepted connection is served by
// exactly one goroutine, its pump; Close severs connections that are still open and
// Wait returns once their goroutines have exited, leaving none behind.
func TestCloseWaitDrainsOpenConnections(t *testing.T) {
	t.Run("inline", func(t *testing.T) {
		before := runtime.NumGoroutine()
		n := simnet.New(simnet.Config{PropDelay: -1})
		var disconnects atomic.Int64
		onDisconnect := func(*Peer) { disconnects.Add(1) }
		srv, err := Serve(n.Host("server"), ":0", &echoHandler{}, ServerOptions{OnDisconnect: onDisconnect})
		if err != nil {
			t.Fatal(err)
		}
		const conns = 8
		clients := make([]*Client, conns)
		for i := range clients {
			if clients[i], err = Dial(context.Background(), n.Host("client"), srv.Addr().String(), DialOptions{}); err != nil {
				t.Fatal(err)
			}
			if _, err := clients[i].Call(context.Background(), &wire.Heartbeat{}); err != nil {
				t.Fatal(err)
			}
		}
		// Poll: an earlier test's connection goroutines may still be exiting.
		deadline := time.Now().Add(5 * time.Second)
		for got := pumps(); got != conns; got = pumps() {
			if time.Now().After(deadline) {
				t.Fatalf("%d goroutines serve %d connections, want one each", got, conns)
			}
			time.Sleep(2 * time.Millisecond)
		}
		srv.Close()
		srv.Wait()
		if got := disconnects.Load(); got != conns {
			t.Errorf("OnDisconnect ran %d times after Close+Wait, want %d", got, conns)
		}
		for _, cli := range clients {
			cli.Close()
		}
		// The server's goroutines are gone when Wait returns; a client's
		// pump, where it has one, exits once it sees the closed connection.
		waitFor(t, "goroutines to return to the baseline", func() bool {
			return runtime.NumGoroutine() <= before
		})
	})
}

func TestMetersChargedBothSides(t *testing.T) {
	n := simnet.New(simnet.Config{PropDelay: -1})
	var smeter, cmeter transport.Meter
	srv, err := Serve(n.Host("server"), ":0", &echoHandler{}, ServerOptions{Meter: &smeter})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := Dial(context.Background(), n.Host("client"), srv.Addr().String(), DialOptions{Meter: &cmeter})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if _, err := cli.Call(context.Background(), &wire.Heartbeat{SentUnixMicros: 1}); err != nil {
		t.Fatal(err)
	}
	// The call completes inside the server's reply write, so the server's
	// meter is charged for it only once that write returns.
	waitFor(t, "the server's reply write to be charged", func() bool { return smeter.Tx() == cmeter.Rx() })
	if cmeter.Tx() == 0 || cmeter.Rx() == 0 {
		t.Errorf("client meter = %d/%d, want nonzero", cmeter.Tx(), cmeter.Rx())
	}
	if smeter.Tx() == 0 || smeter.Rx() == 0 {
		t.Errorf("server meter = %d/%d, want nonzero", smeter.Tx(), smeter.Rx())
	}
	if cmeter.Tx() != smeter.Rx() || cmeter.Rx() != smeter.Tx() {
		t.Errorf("meters disagree: client %d/%d server %d/%d",
			cmeter.Tx(), cmeter.Rx(), smeter.Tx(), smeter.Rx())
	}
}

// TestFrameRoundTripProperty: a stream of every frame kind, whose last frame
// is up to 64 KiB long (one-, two- and three-byte length prefixes), yields
// the same frames whether a pump reads it one byte per Read, a pump reads it
// whole Reads at a time, or it arrives in one run. Read the first way, a
// long frame is joined from many runs; read the second, it outgrows the
// pump's first buffer.
func TestFrameRoundTripProperty(t *testing.T) {
	f := func(id, cycle uint64, limit float64, pad uint16) bool {
		text := strings.Repeat("x", int(pad))
		hist := wire.NewFloatHistory()
		enforce := &wire.Enforce{Cycle: cycle, Rules: []wire.Rule{{StageID: 1, Limit: wire.Rates{limit, limit / 3}}}}
		var stream []byte
		stream = appendFrame(stream, frameHeader{id: id, kind: kindRequest}, &wire.Collect{Cycle: cycle}, nil)
		stream = appendFrame(stream, frameHeader{id: id + 1, kind: kindHistRequest}, enforce, hist)
		stream = appendFrame(stream, frameHeader{id: id + 2, kind: kindHistRequest}, enforce, hist)
		stream = appendFrame(stream, frameHeader{kind: kindPush}, &wire.ReportDelta{Seq: cycle}, nil)
		stream = appendFrame(stream, frameHeader{id: id + 3, kind: kindResponse}, &wire.ErrorReply{Code: 1, Text: text}, nil)

		slow := readFrames(iotest.OneByteReader(bytes.NewReader(stream)))
		whole := readFrames(bytes.NewReader(stream))
		var once frameLog
		once.arrive(stream, nil)
		once.arrive(nil, io.EOF)
		for _, l := range []*frameLog{slow, whole, &once} {
			if l.err != io.EOF || !reflect.DeepEqual(l.hs, slow.hs) || !reflect.DeepEqual(l.bodies, slow.bodies) {
				return false
			}
		}

		hs, bodies := slow.hs, slow.bodies
		want := []frameHeader{{id, kindRequest}, {id + 1, kindHistRequest}, {id + 2, kindHistRequest},
			{0, kindPush}, {id + 3, kindResponse}}
		if !reflect.DeepEqual(hs, want) {
			return false
		}
		stateless, rxHist := &wire.DecodeOpts{Version: wire.CodecV2}, &wire.DecodeOpts{Version: wire.CodecV2, Hist: wire.NewFloatHistory()}
		msgs := make([]wire.Message, len(bodies))
		for i, body := range bodies {
			d := stateless
			if hs[i].kind == kindHistRequest {
				d = rxHist
			}
			var err error
			if msgs[i], err = wire.DecodeWith(body, d); err != nil {
				return false
			}
		}
		for _, m := range msgs[1:3] {
			got := m.(*wire.Enforce).Rules[0].Limit
			if math.Float64bits(got[0]) != math.Float64bits(limit) || math.Float64bits(got[1]) != math.Float64bits(limit/3) {
				return false
			}
		}
		return msgs[0].(*wire.Collect).Cycle == cycle && msgs[3].(*wire.ReportDelta).Seq == cycle &&
			msgs[4].(*wire.ErrorReply).Text == text
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestScatter(t *testing.T) {
	ctx := context.Background()
	for _, par := range []int{0, 1, 4, 100} {
		var count atomic.Int64
		seen := make([]atomic.Bool, 37)
		Scatter(ctx, 37, par, func(i int) {
			count.Add(1)
			if seen[i].Swap(true) {
				t.Errorf("par=%d: index %d visited twice", par, i)
			}
		})
		if count.Load() != 37 {
			t.Errorf("par=%d: visited %d, want 37", par, count.Load())
		}
	}
	// n <= 0 must be a no-op.
	Scatter(ctx, 0, 4, func(int) { t.Error("fn called for n=0") })
	Scatter(ctx, -3, 4, func(int) { t.Error("fn called for n<0") })
}

func TestScatterBoundedParallelism(t *testing.T) {
	var cur, peak atomic.Int64
	Scatter(context.Background(), 64, 4, func(i int) {
		c := cur.Add(1)
		for {
			p := peak.Load()
			if c <= p || peak.CompareAndSwap(p, c) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		cur.Add(-1)
	})
	if p := peak.Load(); p > 4 {
		t.Errorf("observed parallelism %d > 4", p)
	}
}

func TestScatterStopsOnCancel(t *testing.T) {
	// Sequential (par=1): cancel inside an early index must stop the rest.
	ctx, cancel := context.WithCancel(context.Background())
	var visited atomic.Int64
	Scatter(ctx, 100, 1, func(i int) {
		visited.Add(1)
		if i == 4 {
			cancel()
		}
	})
	if got := visited.Load(); got != 5 {
		t.Errorf("par=1: visited %d indexes after cancel at 4, want 5", got)
	}

	// Parallel: workers already holding an index finish it, but no new
	// indexes are issued once ctx is cancelled.
	ctx2, cancel2 := context.WithCancel(context.Background())
	var visited2 atomic.Int64
	Scatter(ctx2, 1000, 4, func(i int) {
		if visited2.Add(1) == 8 { // Add's own result: a separate Load can skip past 8
			cancel2()
		}
	})
	if got := visited2.Load(); got >= 1000 {
		t.Errorf("parallel scatter completed all %d indexes despite cancellation", got)
	}
}

func BenchmarkCallLatency(b *testing.B) {
	n := simnet.New(simnet.Config{PropDelay: -1})
	srv, err := Serve(n.Host("server"), ":0", &echoHandler{}, ServerOptions{})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	cli, err := Dial(context.Background(), n.Host("client"), srv.Addr().String(), DialOptions{})
	if err != nil {
		b.Fatal(err)
	}
	defer cli.Close()
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cli.Call(ctx, &wire.Heartbeat{SentUnixMicros: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

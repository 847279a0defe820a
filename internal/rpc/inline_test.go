package rpc

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/dsrhaslab/sdscale/internal/transport"
	"github.com/dsrhaslab/sdscale/internal/transport/simnet"
	"github.com/dsrhaslab/sdscale/internal/transport/tcpnet"
	"github.com/dsrhaslab/sdscale/internal/wire"
)

// bothDrivers runs fn once against a server that serves each connection on a
// goroutine of its own and once against one that serves it inline.
func bothDrivers(t *testing.T, fn func(t *testing.T, opts ServerOptions)) {
	t.Run("goroutine", func(t *testing.T) { fn(t, ServerOptions{}) })
	t.Run("inline", func(t *testing.T) { fn(t, ServerOptions{NonBlocking: true}) })
}

// TestInlineServerRunsNoServingGoroutine: a NonBlocking server on an
// untimed simnet connection answers each request inside the client's write,
// so the call is complete when Go returns, and the connection costs no
// goroutine. A server that does not declare NonBlocking, and any server on a
// timed simnet network or TCP, where the connection declines the handoff,
// keeps one pump per connection; so does a client on those two networks.
func TestInlineServerRunsNoServingGoroutine(t *testing.T) {
	const clients = 3
	untimed := simnet.New(simnet.Config{PropDelay: -1})
	timed := simnet.New(simnet.Config{PropDelay: 100 * time.Microsecond})
	cases := []struct {
		name        string
		network     transport.Network // the server's
		dialer      transport.Network
		addr        string
		nonBlocking bool
		// The pumps of each connection's server end and client end.
		serverPumps, clientPumps int
	}{
		{"untimed simnet", untimed.Host("s1"), untimed.Host("c1"), ":0", true, 0, 0},
		{"untimed simnet, may block", untimed.Host("s2"), untimed.Host("c2"), ":0", false, 1, 0},
		{"timed simnet", timed.Host("s3"), timed.Host("c3"), ":0", true, 1, 1},
		{"tcp", tcpnet.New(), tcpnet.New(), "127.0.0.1:0", true, 1, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Earlier tests' connections are closed, but their pumps may
			// still be on their way out.
			waitFor(t, "earlier pumps to exit", func() bool { return pumps() == 0 })
			srv, err := Serve(tc.network, tc.addr, &echoHandler{}, ServerOptions{NonBlocking: tc.nonBlocking})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < clients; i++ {
				cli, err := Dial(context.Background(), tc.dialer, srv.Addr().String(), DialOptions{})
				if err != nil {
					t.Fatal(err)
				}
				defer cli.Close()
				call := cli.Go(context.Background(), &wire.Heartbeat{SentUnixMicros: 7})
				if inline := call.completed(); tc.serverPumps == 0 && !inline {
					t.Error("an inline call was still pending when Go returned")
				}
				if _, err := call.Wait(context.Background()); err != nil {
					t.Fatal(err)
				}
			}
			want := clients * (tc.serverPumps + tc.clientPumps)
			waitFor(t, "the pumps", func() bool { return pumps() == want })
			srv.Close()
			srv.Wait()
			// Wait returns once the server's pumps have handed over their
			// connections' ends; they exit just after, and the clients'
			// pumps once those ends reach them.
			waitFor(t, "the pumps to exit", func() bool { return pumps() == 0 })
		})
	}
}

// collectFrames returns n Collect request frames with IDs 1 to n and cycles
// equal to their IDs, alternating stateless (kind 4) and history-coded
// (kind 7) bodies.
func collectFrames(n int) []byte {
	hist := wire.NewFloatHistory()
	var b []byte
	for id := uint64(1); id <= uint64(n); id++ {
		if id%2 == 1 {
			b = appendFrame(b, frameHeader{id: id, kind: kindRequest}, &wire.Collect{Cycle: id}, nil)
		} else {
			b = appendFrame(b, frameHeader{id: id, kind: kindHistRequest}, &wire.Collect{Cycle: id}, hist)
		}
	}
	return b
}

// readReplies reads n response frames from conn and checks they answer
// requests 1 to n in order, each a CollectReply for its own cycle.
func readReplies(t *testing.T, conn net.Conn, n int) {
	t.Helper()
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	var fr frameLog
	hist := wire.NewFloatHistory()
	for want := uint64(1); want <= uint64(n); want++ {
		h, body, err := fr.next(conn)
		if err != nil {
			t.Fatalf("reading response %d: %v", want, err)
		}
		m, err := wire.DecodeWith(body, &wire.DecodeOpts{Version: wire.CodecV2, Hist: hist})
		if err != nil {
			t.Fatalf("decoding response %d: %v", want, err)
		}
		if rep, ok := m.(*wire.CollectReply); h.kind != kindResponse || h.id != want || !ok || rep.Cycle != want {
			t.Fatalf("frame %d: kind %d, id %d, %T; want a response to request %d", want, h.kind, h.id, m, want)
		}
	}
}

// TestInlineRequestsSplitAndBatched: a request that arrives in pieces and
// several requests that arrive in one write are each answered once, in the
// order they were written, by both drivers.
func TestInlineRequestsSplitAndBatched(t *testing.T) {
	bothDrivers(t, func(t *testing.T, opts ServerOptions) {
		n := simnet.New(simnet.Config{PropDelay: -1})
		srv, err := Serve(n.Host("server"), ":0", floatHandler{}, opts)
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		const requests = 6
		frames := collectFrames(requests)
		for _, tc := range []struct {
			name  string
			chunk int
		}{{"one write", len(frames)}, {"byte by byte", 1}, {"in runs of 5", 5}} {
			conn, err := n.Host("client").Dial(context.Background(), srv.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			for rest := frames; len(rest) > 0; {
				k := min(tc.chunk, len(rest))
				if _, err := conn.Write(rest[:k]); err != nil {
					t.Fatalf("%s: %v", tc.name, err)
				}
				rest = rest[k:]
			}
			readReplies(t, conn, requests)
			conn.Close()
		}
	})
}

// TestInlineHandlerPanicIsolated: a handler panic answers its request with
// an internal error and leaves the connection serving, under both drivers.
func TestInlineHandlerPanicIsolated(t *testing.T) {
	bothDrivers(t, func(t *testing.T, opts ServerOptions) {
		h := HandlerFunc(func(_ *Peer, req wire.Message) (wire.Message, error) {
			if c, ok := req.(*wire.Collect); ok && c.Cycle == 13 {
				panic("unlucky cycle")
			}
			return &wire.HeartbeatAck{}, nil
		})
		_, cli := codecSetup(t, h, opts, DialOptions{})
		ctx := context.Background()
		_, err := cli.Call(ctx, &wire.Collect{Cycle: 13})
		var er *wire.ErrorReply
		if !errors.As(err, &er) || er.Code != wire.CodeInternal {
			t.Fatalf("a panicking handler's call returned %v, want an internal ErrorReply", err)
		}
		if _, err := cli.Call(ctx, &wire.Collect{Cycle: 14}); err != nil {
			t.Fatalf("the call after a handler panic: %v", err)
		}
	})
}

// TestInlineCloseDuringHandler: Close while an inline handler runs returns
// without waiting for it. The handler's response write then fails, the
// connection's end is delivered once, OnDisconnect runs once, and Wait
// returns.
func TestInlineCloseDuringHandler(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	h := HandlerFunc(func(_ *Peer, req wire.Message) (wire.Message, error) {
		if _, ok := req.(*wire.Collect); ok {
			close(entered)
			<-release
		}
		return &wire.HeartbeatAck{}, nil
	})
	var disconnects atomic.Int64
	srv, cli := codecSetup(t, h, ServerOptions{
		NonBlocking:  true,
		OnDisconnect: func(*Peer) { disconnects.Add(1) },
	}, DialOptions{})
	if _, err := cli.Call(context.Background(), &wire.Heartbeat{}); err != nil {
		t.Fatal(err)
	}
	issued := make(chan error, 1)
	go func() {
		_, err := cli.Go(context.Background(), &wire.Collect{Cycle: 1}).Wait(context.Background())
		issued <- err
	}()
	<-entered
	closed := make(chan struct{})
	go func() {
		srv.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close waited for an inline handler")
	}
	close(release)
	select {
	case err := <-issued:
		if err == nil {
			t.Error("a call whose server closed under its handler succeeded")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the call never completed after its handler returned")
	}
	waited := make(chan struct{})
	go func() {
		srv.Wait()
		close(waited)
	}()
	select {
	case <-waited:
	case <-time.After(5 * time.Second):
		t.Fatal("Wait did not return after the inline handler finished")
	}
	if got := disconnects.Load(); got != 1 {
		t.Errorf("OnDisconnect ran %d times, want 1", got)
	}
}

// TestInlinePushMeetsResponseOnWriteLock: a push holds its peer's write lock
// while the client's OnPush runs inside it; an inline response on the same
// connection waits for that lock inside the client's write. The push's
// OnPush does not wait for anything the waiting write holds, so both finish.
// The first pass orders the two deterministically; the rest race them.
func TestInlinePushMeetsResponseOnWriteLock(t *testing.T) {
	handled := make(chan struct{}, 1)
	h := HandlerFunc(func(_ *Peer, req wire.Message) (wire.Message, error) {
		select {
		case handled <- struct{}{}:
		default:
		}
		return &wire.HeartbeatAck{}, nil
	})
	var ordered atomic.Bool
	ordered.Store(true)
	inPush := make(chan struct{}, 1)
	srv, cli := codecSetup(t, h, ServerOptions{NonBlocking: true}, DialOptions{
		OnPush: func(wire.Message) {
			if !ordered.Load() {
				return
			}
			inPush <- struct{}{}
			// Hold the write lock until the call's handler has run and its
			// response is waiting for the lock, or give up after a second.
			select {
			case <-handled:
				time.Sleep(time.Millisecond)
			case <-time.After(time.Second):
			}
		},
	})
	push := func() {
		srv.ForEachPeer(func(p *Peer) { _ = p.Push(&wire.ReportDelta{Seq: 1}) })
	}
	if _, err := cli.Call(context.Background(), &wire.Heartbeat{}); err != nil {
		t.Fatal(err)
	}
	<-handled // that call's signal
	done := make(chan struct{})
	go func() {
		defer close(done)
		pushed := make(chan struct{})
		go func() {
			push()
			close(pushed)
		}()
		<-inPush
		if _, err := cli.Call(context.Background(), &wire.Collect{Cycle: 1}); err != nil {
			t.Error(err)
		}
		<-pushed
		ordered.Store(false)

		var wg sync.WaitGroup
		for w := 0; w < 2; w++ {
			wg.Add(2)
			go func() {
				defer wg.Done()
				for i := 0; i < 200; i++ {
					push()
				}
			}()
			go func() {
				defer wg.Done()
				for i := 0; i < 200; i++ {
					if _, err := cli.Call(context.Background(), &wire.Collect{Cycle: uint64(i)}); err != nil {
						t.Error(err)
						return
					}
				}
			}()
		}
		wg.Wait()
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("a push and an inline response deadlocked on the peer's write lock")
	}
}

// srvHandoffConn is a server-side fuzzConn that hands its reads off: the
// test delivers the input to the server's callback itself.
type srvHandoffConn struct {
	*fuzzConn
	installed chan func([]byte, error)
}

func (c *srvHandoffConn) HandoffReads(fn func([]byte, error)) bool {
	c.installed <- fn
	return true
}

// isClosed reports whether the server has closed the connection.
func (c *fuzzConn) isClosed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.closed
}

// serveBytes serves data to a fresh server over one connection and returns
// everything the server wrote. Pump mode hands the server a connection whose
// Reads return runs of chunk bytes; inline mode delivers data to a
// NonBlocking server's callback in runs of chunk bytes, from a buffer
// overwritten after each call, then the end: net.ErrClosed once the server
// has closed the connection, io.EOF if it never did. The server must be done
// with the connection within a deadline.
func serveBytes(t *testing.T, h Handler, data []byte, reuse, inline bool, chunk int) []byte {
	conn := &fuzzConn{r: bytes.NewReader(data)}
	start := make(chan struct{})
	close(start)
	var served net.Conn = chunkedConn{fuzzConn: conn, start: start, chunk: chunk}
	var hc *srvHandoffConn
	if inline {
		hc = &srvHandoffConn{fuzzConn: conn, installed: make(chan func([]byte, error), 1)}
		served = hc
	}
	network := fuzzNet{conns: make(chan net.Conn, 1), done: make(chan struct{})}
	network.conns <- served
	gone := make(chan struct{})
	srv, err := Serve(network, "fuzz:1", h, ServerOptions{
		ReuseRequests: reuse,
		NonBlocking:   inline,
		OnDisconnect:  func(*Peer) { close(gone) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if inline {
		deliver := <-hc.installed
		buf := make([]byte, chunk)
		for rest := data; len(rest) > 0 && !conn.isClosed(); {
			n := copy(buf, rest)
			deliver(buf[:n], nil)
			rest = rest[n:]
			for i := range buf {
				buf[i] = 0xa5
			}
		}
		end := error(net.ErrClosed)
		if !conn.isClosed() {
			end = io.EOF
		}
		deliver(nil, end)
	}
	select {
	case <-gone:
	case <-time.After(5 * time.Second):
		t.Fatal("the server still holds the connection 5s after its input ran out")
	}
	srv.Close()
	srv.Wait()
	return conn.written()
}

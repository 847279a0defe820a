package rpc

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"github.com/dsrhaslab/sdscale/internal/transport"
	"github.com/dsrhaslab/sdscale/internal/transport/simnet"
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
		peer.SetAttachment(m.ID)
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

// eachDiscipline runs fn against both serving disciplines. Tests of server
// behaviour that must not depend on the discipline go through it: an inline
// server is the same server, observably different only in what a cancel
// frame can still reach.
func eachDiscipline(t *testing.T, fn func(t *testing.T, sopts ServerOptions)) {
	t.Run("queued", func(t *testing.T) { fn(t, ServerOptions{}) })
	t.Run("inline", func(t *testing.T) { fn(t, ServerOptions{Inline: true}) })
}

func TestCallRoundTrip(t *testing.T) {
	eachDiscipline(t, func(t *testing.T, sopts ServerOptions) {
		_, cli := codecSetup(t, &echoHandler{}, sopts, DialOptions{})
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
	eachDiscipline(t, func(t *testing.T, sopts ServerOptions) {
		_, cli := codecSetup(t, &echoHandler{}, sopts, DialOptions{})
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
	eachDiscipline(t, func(t *testing.T, sopts ServerOptions) {
		_, cli := codecSetup(t, &echoHandler{}, sopts, DialOptions{})
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
	eachDiscipline(t, func(t *testing.T, sopts ServerOptions) {
		const calls = 1000
		var seen []uint64 // per-connection dispatch is serial, so no lock
		h := HandlerFunc(func(_ *Peer, req wire.Message) (wire.Message, error) {
			c := req.(*wire.Collect)
			seen = append(seen, c.Cycle)
			return floatHandler{}.Serve(nil, c)
		})
		_, cli := codecSetup(t, h, sopts, DialOptions{})
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

func TestPeerAttachment(t *testing.T) {
	eachDiscipline(t, func(t *testing.T, sopts ServerOptions) {
		var got atomic.Value
		h := HandlerFunc(func(peer *Peer, req wire.Message) (wire.Message, error) {
			switch m := req.(type) {
			case *wire.Register:
				peer.SetAttachment(m.ID)
				return &wire.RegisterAck{ID: m.ID}, nil
			case *wire.Heartbeat:
				got.Store(peer.Attachment())
				return &wire.HeartbeatAck{}, nil
			}
			return nil, errors.New("bad")
		})
		_, cli := codecSetup(t, h, sopts, DialOptions{})
		if _, err := cli.Call(context.Background(), &wire.Register{ID: 42}); err != nil {
			t.Fatal(err)
		}
		if _, err := cli.Call(context.Background(), &wire.Heartbeat{}); err != nil {
			t.Fatal(err)
		}
		if v, _ := got.Load().(uint64); v != 42 {
			t.Errorf("attachment seen by second request = %v, want 42", got.Load())
		}
	})
}

func TestHandlerPanicIsolated(t *testing.T) {
	h := HandlerFunc(func(peer *Peer, req wire.Message) (wire.Message, error) {
		if _, ok := req.(*wire.Collect); ok {
			panic("boom")
		}
		return &wire.HeartbeatAck{}, nil
	})
	eachDiscipline(t, func(t *testing.T, sopts ServerOptions) {
		_, cli := codecSetup(t, h, sopts, DialOptions{})
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
	h := HandlerFunc(func(peer *Peer, req wire.Message) (wire.Message, error) {
		return nil, nil
	})
	eachDiscipline(t, func(t *testing.T, sopts ServerOptions) {
		_, cli := codecSetup(t, h, sopts, DialOptions{})
		_, err := cli.Call(context.Background(), &wire.Heartbeat{})
		var er *wire.ErrorReply
		if !errors.As(err, &er) {
			t.Fatalf("nil handler response returned %v", err)
		}
	})
}

func TestServerNumPeersAndOnDisconnect(t *testing.T) {
	eachDiscipline(t, func(t *testing.T, sopts ServerOptions) {
		var disconnects atomic.Int64
		sopts.OnDisconnect = func(*Peer) { disconnects.Add(1) }
		srv, cli := codecSetup(t, &echoHandler{}, sopts, DialOptions{})
		if _, err := cli.Call(context.Background(), &wire.Heartbeat{}); err != nil {
			t.Fatal(err)
		}
		if got := srv.NumPeers(); got != 1 {
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

// TestCloseWaitDrainsOpenConnections: Close severs connections that are
// still open and Wait returns once their goroutines have exited, leaving
// none behind.
func TestCloseWaitDrainsOpenConnections(t *testing.T) {
	eachDiscipline(t, func(t *testing.T, sopts ServerOptions) {
		before := runtime.NumGoroutine()
		n := simnet.New(simnet.Config{PropDelay: -1})
		var disconnects atomic.Int64
		sopts.OnDisconnect = func(*Peer) { disconnects.Add(1) }
		srv, err := Serve(n.Host("server"), ":0", &echoHandler{}, sopts)
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
		srv.Close()
		srv.Wait()
		if got := disconnects.Load(); got != conns {
			t.Errorf("OnDisconnect ran %d times after Close+Wait, want %d", got, conns)
		}
		for _, cli := range clients {
			cli.Close()
		}
		// The server's goroutines are gone when Wait returns; the clients'
		// read loops exit on their own once they see the closed connection.
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

func TestFrameRoundTripProperty(t *testing.T) {
	f := func(id uint64, cycle uint64, text string) bool {
		var buf bytes.Buffer
		frame := appendFrame(nil, frameHeader{id: id, kind: kindRequest}, &wire.Collect{Cycle: cycle}, nil)
		buf.Write(frame)
		frame2 := appendFrame(nil, frameHeader{id: id + 1, kind: kindResponse}, &wire.ErrorReply{Code: 1, Text: text}, nil)
		buf.Write(frame2)

		dec := &wire.DecodeOpts{Version: wire.CodecV2}
		h1, b1, rb, err := readFrame(&buf, nil)
		if err != nil || h1.id != id || h1.kind != kindRequest {
			return false
		}
		m1, err := wire.DecodeWith(b1, dec)
		if err != nil {
			return false
		}
		if c, ok := m1.(*wire.Collect); !ok || c.Cycle != cycle {
			return false
		}
		h2, b2, _, err := readFrame(&buf, rb)
		if err != nil || h2.id != id+1 || h2.kind != kindResponse {
			return false
		}
		m2, err := wire.DecodeWith(b2, dec)
		if err != nil {
			return false
		}
		er, ok := m2.(*wire.ErrorReply)
		return ok && er.Text == text
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestReadFrameRejectsOversize(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	if _, _, _, err := readFrame(&buf, nil); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("readFrame = %v, want ErrFrameTooLarge", err)
	}
}

func TestReadFrameTruncated(t *testing.T) {
	full := appendFrame(nil, frameHeader{id: 1, kind: kindRequest}, &wire.Heartbeat{SentUnixMicros: 5}, nil)
	for i := 1; i < len(full); i++ {
		buf := bytes.NewReader(full[:i])
		if _, _, _, err := readFrame(buf, nil); err == nil {
			t.Errorf("readFrame accepted %d/%d byte prefix", i, len(full))
		}
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

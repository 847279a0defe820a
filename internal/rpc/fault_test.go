package rpc

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/dsrhaslab/sdscale/internal/transport/simnet"
	"github.com/dsrhaslab/sdscale/internal/wire"
)

// blockingHandler parks every request on block after signaling started.
type blockingHandler struct {
	handled atomic.Int64
	started chan struct{}
	block   chan struct{}
}

func newBlockingHandler() *blockingHandler {
	return &blockingHandler{started: make(chan struct{}, 16), block: make(chan struct{})}
}

func (h *blockingHandler) Serve(peer *Peer, req wire.Message) (wire.Message, error) {
	h.handled.Add(1)
	h.started <- struct{}{}
	<-h.block
	return &wire.HeartbeatAck{}, nil
}

// probeCtx bounds a single probe call so a poll loop can never wedge on a
// call issued into a half-dead connection.
func probeCtx() context.Context {
	ctx, cancel := context.WithTimeout(context.Background(), 250*time.Millisecond)
	_ = cancel // released when the timeout fires
	return ctx
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// A cancel frame for a still-queued request must withdraw it before
// dispatch: the handler never sees it.
func TestCancelFrameSkipsQueuedRequest(t *testing.T) {
	h := newBlockingHandler()
	_, srv, cli := testSetup(t, h)

	// Occupy the handler so the next request stays queued.
	firstErr := make(chan error, 1)
	go func() {
		_, err := cli.Call(context.Background(), &wire.Heartbeat{})
		firstErr <- err
	}()
	<-h.started

	ctx, cancel := context.WithCancel(context.Background())
	secondErr := make(chan error, 1)
	go func() {
		_, err := cli.Call(ctx, &wire.Heartbeat{})
		secondErr <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the second request reach the queue
	cancel()
	if err := <-secondErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled call returned %v, want context.Canceled", err)
	}
	waitFor(t, "cancel frame to withdraw the queued request", func() bool {
		return srv.CanceledRequests() == 1
	})

	close(h.block)
	if err := <-firstErr; err != nil {
		t.Fatalf("first call: %v", err)
	}
	if got := h.handled.Load(); got != 1 {
		t.Errorf("handler ran %d times, want 1 (canceled request dispatched)", got)
	}
}

// A cancel arriving while the handler is already running cannot unrun it,
// but the server must suppress the late response instead of writing it.
func TestCancelMidHandlerSuppressesResponse(t *testing.T) {
	h := newBlockingHandler()
	_, srv, cli := testSetup(t, h)

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := cli.Call(ctx, &wire.Heartbeat{})
		errc <- err
	}()
	<-h.started
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled call returned %v", err)
	}
	waitFor(t, "cancel frame to mark the in-flight request", func() bool {
		return srv.CanceledRequests() == 1
	})
	close(h.block)

	// The connection stays healthy and the suppressed response never shows
	// up as a late response at the client.
	if _, err := cli.Call(context.Background(), &wire.Heartbeat{}); err != nil {
		t.Fatalf("call after suppressed response: %v", err)
	}
	if got := cli.LateResponses(); got != 0 {
		t.Errorf("LateResponses = %d, want 0 (response was suppressed server-side)", got)
	}
}

// A response with no waiting call must be dropped and counted, not crash
// the read loop or leak. Simulated with a hand-rolled server that answers
// the same request twice.
func TestLateResponseCounted(t *testing.T) {
	n := simnet.New(simnet.Config{PropDelay: -1})
	l, err := n.Host("server").Listen(":0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		h, _, _, err := readFrame(conn, nil)
		if err != nil {
			return
		}
		hist := wire.NewFloatHistory()
		buf := appendFrame(nil, frameHeader{id: h.id, kind: kindResponse}, &wire.HeartbeatAck{}, hist)
		buf = appendFrame(buf, frameHeader{id: h.id, kind: kindResponse}, &wire.HeartbeatAck{}, hist)
		conn.Write(buf)
		readFrame(conn, nil) // hold the conn open until the client closes
	}()

	cli, err := Dial(context.Background(), n.Host("client"), l.Addr().String(), DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if _, err := cli.Call(context.Background(), &wire.Heartbeat{}); err != nil {
		t.Fatalf("Call: %v", err)
	}
	waitFor(t, "duplicate response to be counted", func() bool {
		return cli.LateResponses() == 1
	})
}

// The reconnecting client must fail fast while disconnected and attach a
// fresh connection once the server is back on the same address.
func TestReconnectingClientRedials(t *testing.T) {
	n := simnet.New(simnet.Config{PropDelay: -1})
	srv, err := Serve(n.Host("server"), ":0", &echoHandler{}, ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr().String()
	rc, err := DialReconnecting(context.Background(), n.Host("client"), addr, DialOptions{},
		ReconnectPolicy{BaseDelay: 2 * time.Millisecond, MaxDelay: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	if _, err := rc.Call(context.Background(), &wire.Heartbeat{}); err != nil {
		t.Fatalf("initial call: %v", err)
	}

	srv.Close()
	// Once the dead connection is detected, calls fail fast with
	// ErrDisconnected instead of blocking on the redial.
	waitFor(t, "fail-fast ErrDisconnected", func() bool {
		_, err := rc.Call(probeCtx(), &wire.Heartbeat{})
		return errors.Is(err, ErrDisconnected)
	})
	if rc.Connected() {
		t.Error("Connected() = true while server is down")
	}

	srv2, err := Serve(n.Host("server"), addr, &echoHandler{}, ServerOptions{})
	if err != nil {
		t.Fatalf("restart server: %v", err)
	}
	defer srv2.Close()
	waitFor(t, "redial to succeed", func() bool {
		_, err := rc.Call(probeCtx(), &wire.Heartbeat{})
		return err == nil
	})
	if got := rc.Reconnects(); got < 1 {
		t.Errorf("Reconnects = %d, want >= 1", got)
	}
}

// Close must stop a redial loop that is backing off against a dead address.
func TestReconnectingClientCloseStopsRedial(t *testing.T) {
	n := simnet.New(simnet.Config{PropDelay: -1})
	srv, err := Serve(n.Host("server"), ":0", &echoHandler{}, ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rc, err := DialReconnecting(context.Background(), n.Host("client"), srv.Addr().String(), DialOptions{},
		ReconnectPolicy{BaseDelay: time.Hour}) // a redial that would wait forever
	if err != nil {
		t.Fatal(err)
	}
	srv.Close()
	waitFor(t, "disconnect detection", func() bool {
		_, err := rc.Call(probeCtx(), &wire.Heartbeat{})
		return errors.Is(err, ErrDisconnected)
	})
	if err := rc.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := rc.Call(context.Background(), &wire.Heartbeat{}); !errors.Is(err, ErrClientClosed) {
		t.Errorf("Call after Close = %v, want ErrClientClosed", err)
	}
}

// Concurrent calls, connection death, and Close must not race (run with
// -race) or deadlock; every call must return.
func TestClientLifecycleRace(t *testing.T) {
	n := simnet.New(simnet.Config{PropDelay: -1})
	srv, err := Serve(n.Host("server"), ":0", &echoHandler{}, ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cli, err := Dial(context.Background(), n.Host("client"), srv.Addr().String(), DialOptions{})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
				_, _ = cli.Call(ctx, &wire.Heartbeat{SentUnixMicros: int64(g*1000 + i)})
				cancel()
				cli.Err()
				cli.LateResponses()
			}
		}(g)
	}
	wg.Add(2)
	go func() {
		defer wg.Done()
		time.Sleep(5 * time.Millisecond)
		srv.Close() // kill the connection under the in-flight calls
	}()
	go func() {
		defer wg.Done()
		time.Sleep(8 * time.Millisecond)
		cli.Close()
	}()

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("lifecycle race test deadlocked")
	}
}

// Same shape for the reconnecting wrapper: calls racing a server bounce and
// a concurrent Close.
func TestReconnectingClientRace(t *testing.T) {
	n := simnet.New(simnet.Config{PropDelay: -1})
	srv, err := Serve(n.Host("server"), ":0", &echoHandler{}, ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr().String()
	rc, err := DialReconnecting(context.Background(), n.Host("client"), addr, DialOptions{},
		ReconnectPolicy{BaseDelay: time.Millisecond, MaxDelay: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
				_, _ = rc.Call(ctx, &wire.Heartbeat{})
				cancel()
				rc.Connected()
				rc.Reconnects()
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		time.Sleep(5 * time.Millisecond)
		srv.Close()
		srv2, err := Serve(n.Host("server"), addr, &echoHandler{}, ServerOptions{})
		if err == nil {
			time.Sleep(10 * time.Millisecond)
			srv2.Close()
		}
	}()

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("reconnecting race test deadlocked")
	}
	rc.Close()
}

func TestReconnectPolicyBackoff(t *testing.T) {
	p := ReconnectPolicy{BaseDelay: 10 * time.Millisecond, MaxDelay: 35 * time.Millisecond,
		Multiplier: 2, Jitter: -1}.withDefaults()
	rng := rand.New(rand.NewSource(1))
	delay := p.BaseDelay
	var waits []time.Duration
	for i := 0; i < 4; i++ {
		var wait time.Duration
		wait, delay = p.next(rng, delay)
		waits = append(waits, wait)
	}
	want := []time.Duration{10, 20, 35, 35}
	for i, w := range want {
		if waits[i] != w*time.Millisecond {
			t.Errorf("wait[%d] = %v, want %v (%v)", i, waits[i], w*time.Millisecond, waits)
			break
		}
	}
}

func TestReconnectPolicyJitterBounds(t *testing.T) {
	// Regression: jitter is drawn from a per-reconnector rand.Rand, not the
	// global math/rand source. The global source serializes every caller on
	// one mutex, which during a mass re-home (thousands of children redialing
	// a new parent at once) turned the jittered retry path into a convoy.
	p := ReconnectPolicy{}.withDefaults()
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 100; i++ {
		wait, _ := p.next(rng, 100*time.Millisecond)
		if wait < 50*time.Millisecond || wait >= 150*time.Millisecond {
			t.Fatalf("jittered wait %v outside [50ms, 150ms)", wait)
		}
	}
	if _, grown := p.next(rng, p.MaxDelay); grown != p.MaxDelay {
		t.Errorf("grown delay %v exceeds MaxDelay %v", grown, p.MaxDelay)
	}
}

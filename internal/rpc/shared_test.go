package rpc

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/dsrhaslab/sdscale/internal/transport/simnet"
	"github.com/dsrhaslab/sdscale/internal/wire"
)

// TestGoSharedRoundTrip: a broadcast frame fans out to several servers with
// one encode, and every handler sees the full body.
func TestGoSharedRoundTrip(t *testing.T) {
	n := simnet.New(simnet.Config{PropDelay: -1})
	const servers = 4
	var clis []*Client
	h := &echoHandler{}
	for i := 0; i < servers; i++ {
		srv, err := Serve(n.Host(fmt.Sprintf("s%d", i)), ":0", h, ServerOptions{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		cli, err := Dial(context.Background(), n.Host("client"), srv.Addr().String(), DialOptions{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cli.Close() })
		clis = append(clis, cli)
	}

	f := NewSharedFrame(&wire.Collect{Cycle: 42, WindowMicros: 1e6})
	calls := make([]*Call, servers)
	for i, cli := range clis {
		calls[i] = cli.GoShared(context.Background(), f)
	}
	f.Release()
	for i, call := range calls {
		resp, err := call.Wait(context.Background())
		if err != nil {
			t.Fatalf("server %d: %v", i, err)
		}
		if r := resp.(*wire.CollectReply); r.Cycle != 42 {
			t.Fatalf("server %d: cycle %d", i, r.Cycle)
		}
	}
	if got := f.refs.Load(); got != 0 {
		t.Fatalf("refs = %d after full harvest, want 0", got)
	}
	// Exactly one encode serves the whole fan-out.
	if enc := f.Encodes(); enc != 1 {
		t.Fatalf("Encodes = %d, want 1", enc)
	}
}

// slowVerifyHandler verifies each Collect body is intact (the shared frame
// was not recycled mid-copy) and can be stalled to keep calls in flight.
type slowVerifyHandler struct {
	delay time.Duration
	mu    sync.Mutex
	bad   []string
}

func (h *slowVerifyHandler) Serve(_ *Peer, req wire.Message) (wire.Message, error) {
	c, ok := req.(*wire.Collect)
	if !ok {
		return nil, fmt.Errorf("unexpected %s", req.Type())
	}
	if h.delay > 0 {
		time.Sleep(h.delay)
	}
	if c.WindowMicros != 1e6 || c.Epoch != 7 {
		h.mu.Lock()
		h.bad = append(h.bad, fmt.Sprintf("cycle=%d window=%d epoch=%d", c.Cycle, c.WindowMicros, c.Epoch))
		h.mu.Unlock()
	}
	return &wire.CollectReply{Cycle: c.Cycle}, nil
}

// TestGoSharedRefcountStress exercises the SharedFrame lifecycle under the
// race detector: many cycles of pipelined fan-out across several
// connections, with slow handlers keeping bodies in flight and one client
// torn down mid-cycle. The pooled encoded body must never be recycled while
// any connection still copies from it (the handlers verify body integrity),
// and every cycle's frame must drain to refs == 0 even when some calls fail.
func TestGoSharedRefcountStress(t *testing.T) {
	n := simnet.New(simnet.Config{PropDelay: -1})
	h := &slowVerifyHandler{delay: 200 * time.Microsecond}
	const conns = 6
	const cycles = 20
	clis := make([]*Client, conns)
	for i := range clis {
		srv, err := Serve(n.Host(fmt.Sprintf("s%d", i)), ":0", h, ServerOptions{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		clis[i], err = Dial(context.Background(), n.Host("client"), srv.Addr().String(), DialOptions{})
		if err != nil {
			t.Fatal(err)
		}
	}
	defer func() {
		for _, cli := range clis {
			cli.Close()
		}
	}()

	var failures int
	for cycle := 1; cycle <= cycles; cycle++ {
		f := NewSharedFrame(&wire.Collect{Cycle: uint64(cycle), WindowMicros: 1e6, Epoch: 7})
		calls := make([]*Call, conns)
		for i, cli := range clis {
			calls[i] = cli.GoShared(context.Background(), f)
		}
		if cycle == cycles/2 {
			// Tear one connection down mid-cycle: its in-flight call fails,
			// but its reference still releases through Wait.
			clis[conns-1].Close()
		}
		f.Release()
		for _, call := range calls {
			if _, err := call.Wait(context.Background()); err != nil {
				failures++
			}
		}
		if got := f.refs.Load(); got != 0 {
			t.Fatalf("cycle %d: refs = %d after harvest, want 0", cycle, got)
		}
	}
	if failures == 0 {
		t.Fatal("expected some failed calls after mid-cycle close")
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.bad) != 0 {
		t.Fatalf("handlers saw %d corrupt bodies, e.g. %s", len(h.bad), h.bad[0])
	}
}

// TestGoSharedOnClosedClient: a pre-failed GoShared handle carries the error
// and takes no reference on the frame.
func TestGoSharedOnClosedClient(t *testing.T) {
	n := simnet.New(simnet.Config{PropDelay: -1})
	srv, err := Serve(n.Host("server"), ":0", &echoHandler{}, ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := Dial(context.Background(), n.Host("client"), srv.Addr().String(), DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cli.Close()

	f := NewSharedFrame(&wire.Heartbeat{SentUnixMicros: 1})
	call := cli.GoShared(context.Background(), f)
	if _, err := call.Wait(context.Background()); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("err = %v, want ErrClientClosed", err)
	}
	if got := f.refs.Load(); got != 1 {
		t.Fatalf("refs = %d, want 1 (only the producer's)", got)
	}
	f.Release()
}

// TestReconnectingGoShared: the reconnect wrapper forwards GoShared and
// fails fast while disconnected without touching the frame's refcount.
func TestReconnectingGoShared(t *testing.T) {
	n := simnet.New(simnet.Config{PropDelay: -1})
	srv, err := Serve(n.Host("server"), ":0", &echoHandler{}, ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rc, err := DialReconnecting(context.Background(), n.Host("client"), srv.Addr().String(),
		DialOptions{}, ReconnectPolicy{BaseDelay: time.Millisecond, MaxDelay: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()

	f := NewSharedFrame(&wire.Heartbeat{SentUnixMicros: 5})
	if _, err := rc.GoShared(context.Background(), f).Wait(context.Background()); err != nil {
		t.Fatalf("connected GoShared: %v", err)
	}

	srv.Close()
	waitFor(t, "wrapper to notice the dead connection", func() bool {
		call := rc.GoShared(context.Background(), f)
		_, err := call.Wait(context.Background())
		if err == nil {
			return false
		}
		rc.NoteError(context.Background(), err)
		return !rc.Connected()
	})
	call := rc.GoShared(context.Background(), f)
	if _, err := call.Wait(context.Background()); !errors.Is(err, ErrDisconnected) {
		t.Fatalf("disconnected GoShared err = %v, want ErrDisconnected", err)
	}
	if got := f.refs.Load(); got != 1 {
		t.Fatalf("refs = %d, want 1", got)
	}
	f.Release()
}

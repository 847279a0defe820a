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
// one encode, and every handler sees the full body. The producer may release
// the frame before the calls are harvested; its body then goes back to the
// pool, and a second release panics.
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
	if f.encoded.Load() != nil {
		t.Fatal("the released frame still holds its body")
	}
	// Exactly one encode serves the whole fan-out.
	if enc := f.Encodes(); enc != 1 {
		t.Fatalf("Encodes = %d, want 1", enc)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a second Release did not panic")
		}
	}()
	f.Release()
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

// TestGoSharedRefcountStress exercises the SharedFrame lifetime under the
// race detector: many cycles of pipelined fan-out across several
// connections, with slow handlers keeping calls in flight and one client
// torn down mid-cycle. The producer's reference is the only one, and it is
// released as soon as every GoShared has returned: the test then takes the
// body's buffer back from the pool, as the next frame would, and overwrites
// it while the calls are still in flight. A connection that read the body
// after GoShared returned would hand its handler the overwritten bytes, which
// the handler's integrity check, or the decode, catches.
func TestGoSharedRefcountStress(t *testing.T) {
	n := simnet.New(simnet.Config{PropDelay: -1})
	h := &slowVerifyHandler{delay: 200 * time.Microsecond}
	const conns = 6
	const cycles = 20
	const victim = conns - 1 // closed mid-run
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

	var victimFailures, overwritten int
	for cycle := 1; cycle <= cycles; cycle++ {
		f := NewSharedFrame(&wire.Collect{Cycle: uint64(cycle), WindowMicros: 1e6, Epoch: 7})
		calls := make([]*Call, conns)
		for i, cli := range clis {
			calls[i] = cli.GoShared(context.Background(), f)
		}
		if cycle == cycles/2 {
			// Tear one connection down mid-cycle: its in-flight call fails.
			clis[victim].Close()
		}
		body := f.encoded.Load()
		f.Release()
		bp := getFrameBuf()
		if bp == body {
			overwritten++
		}
		b := (*bp)[:cap(*bp)]
		for i := range b {
			b[i] = 0xff
		}
		for i, call := range calls {
			_, err := call.Wait(context.Background())
			switch {
			case err == nil:
			case i == victim:
				victimFailures++
			default:
				t.Errorf("cycle %d, connection %d: %v", cycle, i, err)
			}
		}
		putFrameBuf(bp)
	}
	if victimFailures == 0 {
		t.Fatal("expected failed calls after the mid-run close")
	}
	if overwritten == 0 {
		// sync.Pool may hand back another buffer, and under the race
		// detector drops some puts; over 20 cycles it is back at least once.
		t.Fatal("no released body came back from the pool to be overwritten")
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.bad) != 0 {
		t.Fatalf("handlers saw %d corrupt bodies, e.g. %s", len(h.bad), h.bad[0])
	}
}

// TestGoSharedOnClosedClient: a pre-failed GoShared handle carries the error
// and never encodes the frame.
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
	if enc := f.Encodes(); enc != 0 {
		t.Fatalf("Encodes = %d, want 0", enc)
	}
	f.Release()
}

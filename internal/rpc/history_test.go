package rpc

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/dsrhaslab/sdscale/internal/transport"
	"github.com/dsrhaslab/sdscale/internal/transport/simnet"
	"github.com/dsrhaslab/sdscale/internal/wire"
)

// limitsFor is the limit pair a test Enforce for cycle and stage carries.
// Neighbouring cycles share the first limit and every stage keeps its second,
// so a history-coded stream mixes raw, same and delta tags.
func limitsFor(cycle, stage uint64) wire.Rates {
	return wire.Rates{1000.5 + float64(cycle/3), 0.25 * float64(stage)}
}

// testEnforce is a one-rule Enforce for cycle and stage carrying limitsFor
// them.
func testEnforce(cycle, stage uint64) *wire.Enforce {
	return &wire.Enforce{Cycle: cycle, Rules: []wire.Rule{
		{StageID: stage, JobID: 1, Action: wire.ActionSetLimit, Limit: limitsFor(cycle, stage)},
	}}
}

// enforceHandler acknowledges every Enforce and records each rule whose
// limits are not, bit for bit, limitsFor its cycle and stage.
type enforceHandler struct {
	handled atomic.Int64
	mu      sync.Mutex
	bad     []string
}

func (h *enforceHandler) Serve(_ *Peer, req wire.Message) (wire.Message, error) {
	switch m := req.(type) {
	case *wire.Enforce:
		h.handled.Add(1)
		for _, r := range m.Rules {
			if r.Limit != limitsFor(m.Cycle, r.StageID) {
				h.mu.Lock()
				h.bad = append(h.bad, fmt.Sprintf("cycle %d stage %d: %v", m.Cycle, r.StageID, r.Limit))
				h.mu.Unlock()
			}
		}
		return &wire.EnforceAck{Cycle: m.Cycle, Applied: uint32(len(m.Rules))}, nil
	case *wire.Heartbeat:
		return &wire.HeartbeatAck{EchoUnixMicros: m.SentUnixMicros}, nil
	}
	return nil, fmt.Errorf("unexpected %s", req.Type())
}

// TestRequestHistoryLockstep: two goroutines pipeline float-bearing unicast
// Enforces (kind 7, coded against the client's one request history) on one
// client while a third broadcasts stateless wildcard Enforces (kind 4) over
// it. The writers interleave arbitrarily; the server must still decode every
// limit exactly, because the history advances in write order at both ends
// and the broadcasts advance it at neither.
func TestRequestHistoryLockstep(t *testing.T) {
	t.Run("inline", func(t *testing.T) {
		h := &enforceHandler{}
		_, cli := codecSetup(t, h, ServerOptions{ReuseRequests: true}, DialOptions{})
		ctx := context.Background()
		const perSender, broadcasts = 200, 100
		var wg sync.WaitGroup
		unicast := func(stage uint64) {
			defer wg.Done()
			calls := make([]*Call, perSender)
			for i := range calls {
				calls[i] = cli.Go(ctx, testEnforce(uint64(i), stage))
			}
			for i, call := range calls {
				if _, err := call.Wait(ctx); err != nil {
					t.Errorf("stage %d call %d: %v", stage, i, err)
				}
			}
		}
		wg.Add(3)
		go unicast(1)
		go unicast(2)
		go func() {
			defer wg.Done()
			for i := 0; i < broadcasts; i++ {
				f := NewSharedFrame(testEnforce(uint64(i), wire.WildcardStage))
				call := cli.GoShared(ctx, f)
				f.Release()
				if _, err := call.Wait(ctx); err != nil {
					t.Errorf("broadcast %d: %v", i, err)
				}
			}
		}()
		wg.Wait()
		if got := h.handled.Load(); got != 2*perSender+broadcasts {
			t.Errorf("server handled %d Enforces, want %d", got, 2*perSender+broadcasts)
		}
		h.mu.Lock()
		defer h.mu.Unlock()
		if len(h.bad) != 0 {
			t.Fatalf("%d rules decoded wrong, e.g. %s", len(h.bad), h.bad[0])
		}
	})
}

// failOnceConn writes half of one frame and then reports an error, once
// armed.
type failOnceConn struct {
	net.Conn
	armed atomic.Bool
}

func (c *failOnceConn) Write(p []byte) (int, error) {
	if c.armed.CompareAndSwap(true, false) {
		n, _ := c.Conn.Write(p[:len(p)/2])
		return n, errors.New("injected write failure")
	}
	return c.Conn.Write(p)
}

// TestFailedWriteFailsClient: a request whose write fails has advanced the
// request history, and may have left half a frame on the wire, so the
// client is no longer usable. It reports why, and fails the next call at
// once instead of sending it into a stream the server cannot parse.
func TestFailedWriteFailsClient(t *testing.T) {
	n := simnet.New(simnet.Config{PropDelay: -1})
	srv, err := Serve(n.Host("server"), ":0", &enforceHandler{}, ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	raw, err := n.Host("client").Dial(context.Background(), srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	conn := &failOnceConn{Conn: raw}
	cli := newClient(conn, DialOptions{})
	defer cli.Close()

	enforce := testEnforce(3, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := cli.Call(ctx, enforce); err != nil {
		t.Fatalf("healthy call: %v", err)
	}
	conn.armed.Store(true)
	if _, err := cli.Call(ctx, enforce); err == nil || errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("call whose write failed returned %v, want the write error", err)
	}
	if cli.Err() == nil {
		t.Fatal("Err() = nil after a failed write; the client's request history no longer matches the server's")
	}
	start := time.Now()
	if _, err := cli.Call(ctx, enforce); err == nil || errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("call after the failed write returned %v, want the client's failure", err)
	}
	if el := time.Since(start); el > time.Second {
		t.Fatalf("call after the failed write took %v to fail", el)
	}
}

// TestRedialedRequestsStartFromEmptyHistory: request history dies with the
// connection. A repeated Enforce shrinks to same tags, but the first one on
// a redialed connection is self-contained again, byte for byte the size of
// the very first, and the new server (whose history is empty) decodes it.
func TestRedialedRequestsStartFromEmptyHistory(t *testing.T) {
	n := simnet.New(simnet.Config{PropDelay: -1})
	srv, err := Serve(n.Host("server"), ":0", &enforceHandler{}, ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr().String()
	var meter transport.Meter
	dial := func() *Client {
		t.Helper()
		cli, err := Dial(context.Background(), n.Host("client"), addr, DialOptions{Meter: &meter})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cli.Close() })
		return cli
	}
	cli := dial()

	enforce := testEnforce(3, 1)
	sent := func() uint64 {
		t.Helper()
		before := meter.Tx()
		if _, err := cli.Call(context.Background(), enforce); err != nil {
			t.Fatalf("Enforce: %v", err)
		}
		return meter.Tx() - before
	}
	first := sent()
	if repeat := sent(); repeat >= first {
		t.Fatalf("a repeated Enforce took %d bytes, the first %d: it was not coded against the history", repeat, first)
	}

	srv.Close()
	waitFor(t, "the connection to die", func() bool { return errors.Is(cli.Err(), ErrDisconnected) })
	srv2, err := Serve(n.Host("server"), addr, &enforceHandler{}, ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	cli = dial()
	if again := sent(); again != first {
		t.Fatalf("the first Enforce after the redial took %d bytes, want %d: it leaned on the old connection's history", again, first)
	}
}

// TestOrphanHistoryTagDropsTheConnection: a kind-7 request whose same tags
// point at history the server never saw is corruption. The server closes the
// connection without answering.
func TestOrphanHistoryTagDropsTheConnection(t *testing.T) {
	t.Run("inline", func(t *testing.T) {
		n := simnet.New(simnet.Config{PropDelay: -1})
		srv, err := Serve(n.Host("server"), ":0", &enforceHandler{}, ServerOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		hist := wire.NewFloatHistory()
		_ = appendFrame(nil, frameHeader{id: 1, kind: kindHistRequest}, testEnforce(3, 1), hist)
		orphan := appendFrame(nil, frameHeader{id: 2, kind: kindHistRequest}, testEnforce(3, 1), hist)

		raw, err := n.Host("client").Dial(context.Background(), srv.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer raw.Close()
		if _, err := raw.Write(orphan); err != nil {
			t.Fatal(err)
		}
		_ = raw.SetReadDeadline(time.Now().Add(2 * time.Second))
		if b, err := io.ReadAll(raw); err != nil || len(b) != 0 {
			t.Errorf("read %d bytes, %v; want EOF and nothing", len(b), err)
		}
	})
}

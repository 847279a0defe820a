package rpc

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"github.com/dsrhaslab/sdscale/internal/transport"
	"github.com/dsrhaslab/sdscale/internal/transport/simnet"
	"github.com/dsrhaslab/sdscale/internal/transport/tcpnet"
	"github.com/dsrhaslab/sdscale/internal/wire"
)

// TestHandoffClientRunsNoReadLoop: a client over an untimed simnet
// connection reads its responses on the goroutines that write them and adds
// no goroutine of its own. Over a timed simnet network or TCP, where the
// connection declines the handoff, every client runs a pump. The server,
// which does not declare NonBlocking, runs one per connection everywhere.
func TestHandoffClientRunsNoReadLoop(t *testing.T) {
	const clients = 4
	cases := []struct {
		name    string
		network transport.Network // the server's
		dialer  transport.Network
		addr    string
		// The pumps of each connection's client end.
		clientPumps int
	}{
		{"untimed simnet", nil, nil, ":0", 0},
		{"timed simnet", nil, nil, ":0", 1},
		{"tcp", tcpnet.New(), tcpnet.New(), "127.0.0.1:0", 1},
	}
	untimed := simnet.New(simnet.Config{PropDelay: -1})
	cases[0].network, cases[0].dialer = untimed.Host("server"), untimed.Host("client")
	timed := simnet.New(simnet.Config{PropDelay: 100 * time.Microsecond})
	cases[1].network, cases[1].dialer = timed.Host("server"), timed.Host("client")
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			srv, err := Serve(tc.network, tc.addr, &echoHandler{}, ServerOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			// An earlier test's pumps exit once their connections have
			// closed, which may be after it returned: count from none.
			waitFor(t, "earlier tests' pumps to exit", func() bool { return pumps() == 0 })
			goBase := runtime.NumGoroutine()
			var clis []*Client
			for i := 0; i < clients; i++ {
				cli, err := Dial(context.Background(), tc.dialer, srv.Addr().String(), DialOptions{Meter: &transport.Meter{}})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { cli.Close() })
				clis = append(clis, cli)
				if _, err := cli.Call(context.Background(), &wire.Heartbeat{SentUnixMicros: 1}); err != nil {
					t.Fatal(err)
				}
			}
			want := clients * (1 + tc.clientPumps)
			waitFor(t, "the pumps", func() bool { return pumps() == want })
			if tc.clientPumps == 0 {
				// One pump per connection, on the server.
				if added := runtime.NumGoroutine() - goBase; added > clients {
					t.Errorf("%d clients and their connections added %d goroutines, want at most %d", clients, added, clients)
				}
			}
			for _, cli := range clis {
				cli.Close()
			}
			waitFor(t, "the pumps to exit", func() bool { return pumps() == 0 })
		})
	}
}

// TestHandoffOnPushMayCloseClient: OnPush runs inside the pushing server's
// write on a handed-off connection, and may close the client it was called
// for: the push returns, the client fails its calls from then on, and its
// connection's end reaches it without a second failure.
func TestHandoffOnPushMayCloseClient(t *testing.T) {
	n := simnet.New(simnet.Config{PropDelay: -1})
	srv, err := Serve(n.Host("server"), ":0", &echoHandler{}, ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	closed := make(chan *Client, 1)
	cli, err := Dial(context.Background(), n.Host("client"), srv.Addr().String(), DialOptions{
		OnPush: func(wire.Message) { (<-closed).Close() },
	})
	if err != nil {
		t.Fatal(err)
	}
	closed <- cli
	if _, err := cli.Call(context.Background(), &wire.Heartbeat{}); err != nil {
		t.Fatal(err)
	}
	pushed := make(chan struct{})
	go func() {
		defer close(pushed)
		srv.ForEachPeer(func(p *Peer) { p.Push(&wire.ReportDelta{Seq: 1}) })
	}()
	select {
	case <-pushed:
	case <-time.After(5 * time.Second):
		t.Fatal("a push whose OnPush closed the client never returned")
	}
	if err := cli.Err(); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("Err after OnPush closed the client = %v, want ErrClientClosed", err)
	}
	if _, err := cli.Call(context.Background(), &wire.Heartbeat{}); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("a call after OnPush closed the client = %v, want ErrClientClosed", err)
	}
}

package rpc

import (
	"bytes"
	"context"
	"io"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"testing/iotest"
	"time"

	"github.com/dsrhaslab/sdscale/internal/transport"
	"github.com/dsrhaslab/sdscale/internal/transport/simnet"
	"github.com/dsrhaslab/sdscale/internal/transport/tcpnet"
	"github.com/dsrhaslab/sdscale/internal/wire"
)

// echoAddr answers a Register with a StageListReply whose one entry carries
// the request's address back, so a long address makes a long frame each way.
var echoAddr = HandlerFunc(func(_ *Peer, req wire.Message) (wire.Message, error) {
	r := req.(*wire.Register)
	return &wire.StageListReply{Stages: []wire.StageEntry{{ID: r.ID, Addr: r.Addr}}}, nil
})

// callEcho sends a Register carrying addr over cli and checks that the reply
// carries it back.
func callEcho(t *testing.T, cli *Client, addr string) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	reply, err := cli.Call(ctx, &wire.Register{ID: 9, Addr: addr})
	if err != nil {
		t.Fatal(err)
	}
	r, ok := reply.(*wire.StageListReply)
	if !ok || len(r.Stages) != 1 || r.Stages[0].ID != 9 || r.Stages[0].Addr != addr {
		t.Fatalf("a %d-byte address came back as %T", len(addr), reply)
	}
}

// TestPumpLargeFrameRoundTrip: a 1 MiB request and its 1 MiB response cross
// a TCP connection and a timed simnet connection, where both ends read
// through a pump, whole and intact.
func TestPumpLargeFrameRoundTrip(t *testing.T) {
	timed := simnet.New(simnet.Config{PropDelay: 50 * time.Microsecond})
	for _, tc := range []struct {
		name           string
		server, dialer transport.Network
		addr           string
	}{
		{"tcp", tcpnet.New(), tcpnet.New(), "127.0.0.1:0"},
		{"timed simnet", timed.Host("server"), timed.Host("client"), ":0"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv, err := Serve(tc.server, tc.addr, echoAddr, ServerOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			cli, err := Dial(context.Background(), tc.dialer, srv.Addr().String(), DialOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer cli.Close()
			callEcho(t, cli, strings.Repeat("a", 1<<20))
			callEcho(t, cli, "short") // the stream is still in step
		})
	}
}

// readCounter counts the Reads of a connection that returned bytes.
type readCounter struct {
	net.Conn
	reads atomic.Int64
}

func (c *readCounter) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.reads.Add(1)
	}
	return n, err
}

// TestLargeFrameFewReads: a pump doubles its buffer after every Read that
// fills it, so a 1 MiB request takes the server a dozen Reads over a
// net.Pipe, which fills whatever buffer a Read offers, where a fixed 512 B
// buffer would take about 2,048.
func TestLargeFrameFewReads(t *testing.T) {
	serverEnd, clientEnd := net.Pipe()
	counted := &readCounter{Conn: serverEnd}
	network := fuzzNet{conns: make(chan net.Conn, 1), done: make(chan struct{})}
	network.conns <- counted
	srv, err := Serve(network, "fuzz:1", echoAddr, ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli := newClient(clientEnd, DialOptions{})
	defer cli.Close()
	callEcho(t, cli, strings.Repeat("p", 1<<20))
	if reads := counted.reads.Load(); reads > 16 {
		t.Errorf("the server's pump took %d Reads for a 1 MiB request, want <= 16", reads)
	}
}

// TestLargeFrameOneByteReads: a 64 KiB frame whose every byte comes in a
// Read of its own, so that it is split at every boundary it has, arrives
// whole and once, at a pump's reader and at a client.
func TestLargeFrameOneByteReads(t *testing.T) {
	addr := strings.Repeat("s", 64<<10)
	reply := &wire.StageListReply{Stages: []wire.StageEntry{{ID: 1, Addr: addr}}}
	frame := appendFrame(nil, frameHeader{id: 1, kind: kindResponse}, reply, wire.NewFloatHistory())

	l := readFrames(iotest.OneByteReader(bytes.NewReader(frame)))
	if _, body, _, _ := cut(frame); l.err != io.EOF || len(l.hs) != 1 || !bytes.Equal(l.bodies[0], body) {
		t.Fatalf("one byte per Read: %d frames, then %v; want the frame once, then EOF", len(l.hs), l.err)
	}

	start := make(chan struct{})
	cli := newClient(chunkedConn{fuzzConn: &fuzzConn{r: bytes.NewReader(frame)}, start: start, chunk: 1}, DialOptions{})
	defer cli.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	call := cli.Go(ctx, &wire.StageList{})
	close(start) // the response arrives once its call is pending
	got, err := call.Wait(ctx)
	if r, ok := got.(*wire.StageListReply); err != nil || !ok || len(r.Stages) != 1 || r.Stages[0].Addr != addr {
		t.Fatalf("one byte per Read, the client's call ended with %T, %v", got, err)
	}
	if late := cli.late.Load(); late != 0 {
		t.Errorf("%d late responses, want none", late)
	}
}

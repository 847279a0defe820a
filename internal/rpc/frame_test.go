package rpc

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/dsrhaslab/sdscale/internal/transport/simnet"
	"github.com/dsrhaslab/sdscale/internal/wire"
)

// legacyFrame returns a well-formed frame of the given kind whose body is a
// fixed-width Heartbeat announcing codec 2 — what an older build's hello
// (kind 3) carried, and a valid request (kind 0) or response (kind 1) body in
// that build's encoding.
func legacyFrame(id uint64, kind byte) []byte {
	body := wire.EncodeWith(nil, &wire.Heartbeat{SentUnixMicros: wire.CodecV2}, wire.CodecV1, nil)
	return appendSharedFrame(nil, frameHeader{id: id, kind: kind}, body)
}

// TestRetiredFrameKindsDropTheConnection: a frame of a retired or unknown
// kind is a peer that is not this build. The server closes the connection
// without answering, and a client fails its calls with the frame kind named
// instead of waiting out their deadlines.
func TestRetiredFrameKindsDropTheConnection(t *testing.T) {
	eachDiscipline(t, func(t *testing.T, sopts ServerOptions) {
		n := simnet.New(simnet.Config{PropDelay: -1})
		srv, err := Serve(n.Host("server"), ":0", &echoHandler{}, sopts)
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		for _, kind := range []byte{0, 1, 3, 7} {
			raw, err := n.Host("legacy").Dial(context.Background(), srv.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			if _, err := raw.Write(legacyFrame(1, kind)); err != nil {
				t.Fatal(err)
			}
			_ = raw.SetReadDeadline(time.Now().Add(2 * time.Second))
			if b, err := io.ReadAll(raw); err != nil || len(b) != 0 {
				t.Errorf("server, frame kind %d: read %d bytes, %v; want EOF and nothing", kind, len(b), err)
			}
			raw.Close()
		}
	})

	n := simnet.New(simnet.Config{PropDelay: -1})
	for _, kind := range []byte{1, 3, 7} {
		l, err := n.Host("legacy").Listen(":0")
		if err != nil {
			t.Fatal(err)
		}
		go func() {
			c, err := l.Accept()
			if err != nil {
				return
			}
			defer c.Close()
			if h, _, _, err := readFrame(c, nil); err == nil {
				_, _ = c.Write(legacyFrame(h.id, kind))
				_, _, _, _ = readFrame(c, nil) // hold the connection until the client drops it
			}
		}()
		cli, err := Dial(context.Background(), n.Host("client"), l.Addr().String(), DialOptions{})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		_, err = cli.Call(ctx, &wire.Heartbeat{})
		cancel()
		if want := fmt.Sprintf("frame kind %d", kind); err == nil || errors.Is(err, context.DeadlineExceeded) ||
			!strings.Contains(err.Error(), want) {
			t.Errorf("client, frame kind %d: call returned %v, want the connection lost on %q", kind, err, want)
		}
		cli.Close()
		l.Close()
	}
}

// fuzzConn is a server-side connection that reads a fixed input and then
// EOF, and records everything the server writes.
type fuzzConn struct {
	r      *bytes.Reader
	mu     sync.Mutex
	out    bytes.Buffer
	closed bool
}

func (c *fuzzConn) Read(p []byte) (int, error) { return c.r.Read(p) }

func (c *fuzzConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return 0, net.ErrClosed
	}
	return c.out.Write(p)
}

func (c *fuzzConn) Close() error {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
	return nil
}

func (c *fuzzConn) written() []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]byte(nil), c.out.Bytes()...)
}

func (*fuzzConn) LocalAddr() net.Addr              { return fuzzAddr{} }
func (*fuzzConn) RemoteAddr() net.Addr             { return fuzzAddr{} }
func (*fuzzConn) SetDeadline(time.Time) error      { return nil }
func (*fuzzConn) SetReadDeadline(time.Time) error  { return nil }
func (*fuzzConn) SetWriteDeadline(time.Time) error { return nil }

type fuzzAddr struct{}

func (fuzzAddr) Network() string { return "fuzz" }
func (fuzzAddr) String() string  { return "fuzz:1" }

// fuzzNet is a network that is its own listener: it accepts the connections
// queued on conns, then blocks until it is closed.
type fuzzNet struct {
	conns chan net.Conn
	done  chan struct{}
}

func (n fuzzNet) Listen(string) (net.Listener, error)            { return n, nil }
func (n fuzzNet) Dial(context.Context, string) (net.Conn, error) { return nil, errors.ErrUnsupported }
func (n fuzzNet) Close() error                                   { close(n.done); return nil }
func (n fuzzNet) Addr() net.Addr                                 { return fuzzAddr{} }

func (n fuzzNet) Accept() (net.Conn, error) {
	select {
	case c := <-n.conns:
		return c, nil
	case <-n.done:
		return nil, net.ErrClosed
	}
}

// FuzzServeConn writes arbitrary bytes into a live server connection, under
// either discipline. The server must not panic, must be done with the
// connection within a deadline of its input running out, and must write only
// responses, each answering a distinct well-formed request (kind 4) that
// precedes the first frame it cannot accept.
func FuzzServeConn(f *testing.F) {
	for kind := byte(0); kind <= 7; kind++ {
		var frame []byte
		switch kind {
		case kindCancel:
			frame = appendCancelFrame(nil, 1)
		case kindRequest:
			frame = appendFrame(nil, frameHeader{id: 1, kind: kind}, &wire.Collect{Cycle: 3}, nil)
		case kindResponse:
			frame = appendFrame(nil, frameHeader{id: 1, kind: kind}, &wire.HeartbeatAck{EchoUnixMicros: 5}, wire.NewFloatHistory())
		case kindPush:
			frame = appendFrame(nil, frameHeader{kind: kind}, &wire.ReportDelta{Seq: 1}, nil)
		default: // the retired kinds 0, 1 and 3, and an unknown one
			frame = legacyFrame(1, kind)
		}
		f.Add(frame, false)
		f.Add(frame, true)
	}
	burst := appendFrame(nil, frameHeader{id: 1, kind: kindRequest}, &wire.Heartbeat{SentUnixMicros: 1}, nil)
	burst = appendFrame(burst, frameHeader{id: 2, kind: kindRequest}, &wire.Collect{Cycle: 2}, nil)
	burst = appendCancelFrame(burst, 2)
	burst = appendFrame(burst, frameHeader{id: 3, kind: kindRequest}, &wire.Collect{Cycle: 3}, nil)
	f.Add(burst, false)
	f.Add(burst, true)

	handler := HandlerFunc(func(_ *Peer, req wire.Message) (wire.Message, error) {
		if c, ok := req.(*wire.Collect); ok {
			return floatHandler{}.Serve(nil, c)
		}
		return &wire.HeartbeatAck{}, nil
	})
	f.Fuzz(func(t *testing.T, data []byte, inline bool) {
		// The requests the server may answer: those read before the first
		// frame it cannot accept.
		may := make(map[uint64]int)
		in, dec := bytes.NewReader(data), &wire.DecodeOpts{Version: wire.CodecV2}
		for {
			h, body, _, err := readFrame(in, nil)
			if err != nil || (h.kind != kindRequest && h.kind != kindCancel) {
				break
			}
			if h.kind == kindRequest {
				if _, err := wire.DecodeWith(body, dec); err != nil {
					break
				}
				may[h.id]++
			}
		}

		conn := &fuzzConn{r: bytes.NewReader(data)}
		network := fuzzNet{conns: make(chan net.Conn, 1), done: make(chan struct{})}
		network.conns <- conn
		gone := make(chan struct{})
		srv, err := Serve(network, "fuzz:1", handler, ServerOptions{
			Inline:        inline,
			ReuseRequests: true,
			OnDisconnect:  func(*Peer) { close(gone) },
		})
		if err != nil {
			t.Fatal(err)
		}
		select {
		case <-gone:
		case <-time.After(5 * time.Second):
			t.Fatal("the server still holds the connection 5s after its input ran out")
		}
		srv.Close()
		srv.Wait()

		out, hist := bytes.NewReader(conn.written()), wire.NewFloatHistory()
		for out.Len() > 0 {
			h, body, _, err := readFrame(out, nil)
			if err != nil {
				t.Fatalf("server wrote a malformed frame: %v", err)
			}
			if h.kind != kindResponse || may[h.id] == 0 {
				t.Fatalf("server wrote a kind-%d frame for id %d, which no well-formed request asked for", h.kind, h.id)
			}
			may[h.id]--
			if _, err := wire.DecodeWith(body, &wire.DecodeOpts{Version: wire.CodecV2, Hist: hist}); err != nil {
				t.Fatalf("server wrote an undecodable response: %v", err)
			}
		}
	})
}

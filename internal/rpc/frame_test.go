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

// legacyFrame returns a frame of the given kind, with this build's uvarint
// length prefix, whose body is a fixed-width Heartbeat announcing codec 2 —
// what an older build's hello (kind 3) carried, and a valid request (kind 0)
// or response (kind 1) body in that build's encoding. A cancel (kind 2)
// carried only the ID of the request it withdrew, and gets no body. (An
// older build's own 4-byte length prefix is refused before its kind is read;
// see TestReadFrameRejectsOversize.)
func legacyFrame(id uint64, kind byte) []byte {
	if kind == 2 {
		return appendSharedFrame(nil, frameHeader{id: id, kind: kind}, nil)
	}
	body := wire.EncodeWith(nil, &wire.Heartbeat{SentUnixMicros: wire.CodecV2}, wire.CodecV1, nil)
	return appendSharedFrame(nil, frameHeader{id: id, kind: kind}, body)
}

// TestRetiredFrameKindsDropTheConnection: a frame of a retired or unknown
// kind is a peer that is not this build. The server closes the connection
// without answering, whether it serves the connection on a goroutine or
// inline, and a client fails its calls with the frame kind named instead of
// waiting out their deadlines.
func TestRetiredFrameKindsDropTheConnection(t *testing.T) {
	t.Run("inline", func(t *testing.T) {
		n := simnet.New(simnet.Config{PropDelay: -1})
		for _, opts := range []ServerOptions{{}, {NonBlocking: true}} {
			srv, err := Serve(n.Host("server"), ":0", &echoHandler{}, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			for _, kind := range []byte{0, 1, 2, 3, 8} {
				raw, err := n.Host("legacy").Dial(context.Background(), srv.Addr().String())
				if err != nil {
					t.Fatal(err)
				}
				// A well-formed request first: the frame after it drops the
				// connection, the answer already written stays.
				if _, err := raw.Write(append(collectFrames(1), legacyFrame(2, kind)...)); err != nil {
					t.Fatal(err)
				}
				readReplies(t, raw, 1)
				_ = raw.SetReadDeadline(time.Now().Add(2 * time.Second))
				if b, err := io.ReadAll(raw); err != nil || len(b) != 0 {
					t.Errorf("server (NonBlocking %v), frame kind %d: read %d more bytes, %v; want EOF and nothing",
						opts.NonBlocking, kind, len(b), err)
				}
				raw.Close()
			}
		}

		for _, kind := range []byte{1, 2, 3, 8} {
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
				fr := frameReader{r: c}
				if h, _, err := fr.next(); err == nil {
					_, _ = c.Write(legacyFrame(h.id, kind))
					_, _, _ = fr.next() // hold the connection until the client drops it
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
	})
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

// FuzzServeConn writes arbitrary bytes into a live server connection, with
// the request freelist on or off, once through a connection the server reads
// and once through one that hands its reads off to a NonBlocking server, in
// runs of a fuzzed size. The server must not panic, must be done with the
// connection within a deadline of its input running out, and must write only
// responses, each answering a distinct well-formed request (kind 4, or kind
// 7 decoded against the connection's request history) that precedes the
// first frame it cannot accept. A cancel frame (kind 2) is one it cannot
// accept. Both drivers must write the same bytes.
func FuzzServeConn(f *testing.F) {
	for kind := byte(0); kind <= 8; kind++ {
		var frame []byte
		switch kind {
		case kindRequest:
			frame = appendFrame(nil, frameHeader{id: 1, kind: kind}, &wire.Collect{Cycle: 3}, nil)
		case kindResponse:
			frame = appendFrame(nil, frameHeader{id: 1, kind: kind}, &wire.HeartbeatAck{EchoUnixMicros: 5}, wire.NewFloatHistory())
		case kindPush:
			frame = appendFrame(nil, frameHeader{kind: kind}, &wire.ReportDelta{Seq: 1}, nil)
		case kindHistRequest:
			frame = appendFrame(nil, frameHeader{id: 1, kind: kind}, testEnforce(1, 1), wire.NewFloatHistory())
		default: // the retired kinds 0 to 3, and an unknown one
			frame = legacyFrame(1, kind)
		}
		f.Add(frame, false, byte(255))
		f.Add(frame, true, byte(0))
	}
	burst := appendFrame(nil, frameHeader{id: 1, kind: kindRequest}, &wire.Heartbeat{SentUnixMicros: 1}, nil)
	burst = appendFrame(burst, frameHeader{id: 2, kind: kindRequest}, &wire.Collect{Cycle: 2}, nil)
	burst = append(burst, legacyFrame(2, 2)...)
	burst = appendFrame(burst, frameHeader{id: 3, kind: kindRequest}, &wire.Collect{Cycle: 3}, nil)
	// A kind-7 burst: same and delta tags against the history, a stateless
	// broadcast between them, and a cancel the server refuses before the
	// last.
	hist := wire.NewFloatHistory()
	histBurst := appendFrame(nil, frameHeader{id: 1, kind: kindHistRequest}, testEnforce(1, 1), hist)
	histBurst = appendFrame(histBurst, frameHeader{id: 2, kind: kindHistRequest}, testEnforce(2, 1), hist)
	histBurst = appendFrame(histBurst, frameHeader{id: 3, kind: kindRequest}, testEnforce(3, 1), nil)
	histBurst = append(histBurst, legacyFrame(3, 2)...)
	histBurst = appendFrame(histBurst, frameHeader{id: 4, kind: kindHistRequest}, testEnforce(4, 1), hist)
	// A same tag at a position the server has no history for: the
	// connection drops unanswered.
	orphan := appendFrame(nil, frameHeader{id: 5, kind: kindHistRequest}, testEnforce(5, 1), hist)
	// A frame of 128 bytes or more: a two-byte length prefix.
	long := appendFrame(nil, frameHeader{id: 1, kind: kindHistRequest}, &wire.Register{ID: 9, Addr: strings.Repeat("a", 200)}, wire.NewFloatHistory())
	for _, seed := range [][]byte{burst, histBurst, orphan, long} {
		f.Add(seed, false, byte(0))
		f.Add(seed, true, byte(4))
	}

	handler := HandlerFunc(func(_ *Peer, req wire.Message) (wire.Message, error) {
		if c, ok := req.(*wire.Collect); ok {
			return floatHandler{}.Serve(nil, c)
		}
		return &wire.HeartbeatAck{}, nil
	})
	f.Fuzz(func(t *testing.T, data []byte, reuse bool, chunk byte) {
		// The requests the server may answer: those read before the first
		// frame it cannot accept.
		may := make(map[uint64]int)
		in := frameReader{r: bytes.NewReader(data)}
		dec := &wire.DecodeOpts{Version: wire.CodecV2}
		histDec := &wire.DecodeOpts{Version: wire.CodecV2, Hist: wire.NewFloatHistory()}
		for {
			h, body, err := in.next()
			if err != nil || (h.kind != kindRequest && h.kind != kindHistRequest) {
				break
			}
			d := dec
			if h.kind == kindHistRequest {
				d = histDec
			}
			if _, err := wire.DecodeWith(body, d); err != nil {
				break
			}
			may[h.id]++
		}

		written := serveBytes(t, handler, data, reuse, false, 0)
		if inline := serveBytes(t, handler, data, reuse, true, int(chunk)+1); !bytes.Equal(inline, written) {
			t.Fatalf("the inline driver wrote %x, the read loop %x", inline, written)
		}

		out, hist := frameReader{r: bytes.NewReader(written)}, wire.NewFloatHistory()
		for {
			h, body, err := out.next()
			if err == io.EOF {
				break
			}
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

// chunkedConn is a client-side fuzzConn whose reads wait for start and then
// return at most chunk bytes each.
type chunkedConn struct {
	*fuzzConn
	start <-chan struct{}
	chunk int
}

func (c chunkedConn) Read(p []byte) (int, error) {
	<-c.start
	if len(p) > c.chunk {
		p = p[:c.chunk]
	}
	return c.fuzzConn.Read(p)
}

// handoffConn is a client-side fuzzConn that hands its reads off: the test
// delivers the server's bytes to the client itself.
type handoffConn struct {
	*fuzzConn
	deliver func([]byte, error)
}

func (c *handoffConn) HandoffReads(fn func([]byte, error)) bool {
	c.deliver = fn
	return true
}

// FuzzClientConn feeds arbitrary server bytes, in runs of a fuzzed size, to
// a client with three calls pending (request IDs 1 to 3), once through a
// read loop and once through a connection that hands its reads off. The
// client must not panic, every call must complete with a reply or an error
// within a deadline of the bytes running out, and each call must end the
// same way under both drivers.
func FuzzClientConn(f *testing.F) {
	hist := wire.NewFloatHistory()
	collect := &wire.CollectReply{Cycle: 1, Reports: []wire.StageReport{
		{StageID: 1, JobID: 1, Demand: wire.Rates{150.5, 100}, Usage: wire.Rates{99.25, 0}},
	}}
	replies := appendFrame(nil, frameHeader{id: 1, kind: kindResponse}, &wire.HeartbeatAck{EchoUnixMicros: 1}, hist)
	replies = appendFrame(replies, frameHeader{kind: kindPush}, &wire.ReportDelta{Seq: 1, Report: collect.Reports[0]}, nil)
	replies = appendFrame(replies, frameHeader{id: 2, kind: kindResponse}, collect, hist)
	same := appendFrame(nil, frameHeader{id: 3, kind: kindResponse}, collect, hist) // all same tags
	replies = append(replies, same...)
	seeds := [][]byte{
		replies,
		replies[:len(replies)-3], // the last response cut short
		same,                     // same tags with no history behind them
		// A two-byte length prefix.
		appendFrame(nil, frameHeader{id: 1, kind: kindResponse}, &wire.ErrorReply{Text: strings.Repeat("z", 200)}, nil),
		// A response nobody waits for, then a request kind a client never reads.
		append(appendFrame(nil, frameHeader{id: 9, kind: kindResponse}, &wire.HeartbeatAck{}, nil), legacyFrame(1, kindHistRequest)...),
		{0x80, 0x80, 0x80, 0x80, 0x01},
		// A response, then a cancel frame (kind 2), which no build sends a
		// client: the two calls still pending fail with the connection.
		append(appendFrame(nil, frameHeader{id: 1, kind: kindResponse}, &wire.HeartbeatAck{}, nil), legacyFrame(2, 2)...),
	}
	for _, seed := range seeds {
		f.Add(seed, byte(0))
		f.Add(seed, byte(255))
	}

	f.Fuzz(func(t *testing.T, data []byte, chunk byte) {
		loop := clientOutcomes(t, data, int(chunk)+1, false)
		handoff := clientOutcomes(t, data, int(chunk)+1, true)
		for i := range loop {
			if loop[i] != handoff[i] {
				t.Fatalf("call %d ended with %s on a read loop and %s on a handoff", i+1, loop[i], handoff[i])
			}
		}
	})
}

// clientOutcomes issues FuzzClientConn's three calls, delivers data to the
// client in runs of chunk bytes (through a read loop, or a handoff), and
// returns how each call ended: its reply's type, or its error.
func clientOutcomes(t *testing.T, data []byte, chunk int, handoff bool) []string {
	start := make(chan struct{})
	var conn net.Conn = chunkedConn{fuzzConn: &fuzzConn{r: bytes.NewReader(data)}, start: start, chunk: chunk}
	var hc *handoffConn
	if handoff {
		hc = &handoffConn{fuzzConn: &fuzzConn{}}
		conn = hc
	}
	cli := newClient(conn, DialOptions{ReuseReplies: true, OnPush: func(wire.Message) {}})
	defer cli.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	calls := []*Call{
		cli.Go(ctx, &wire.Heartbeat{SentUnixMicros: 1}),
		cli.Go(ctx, &wire.Collect{Cycle: 1}),
		cli.Go(ctx, testEnforce(1, 1)),
	}
	if handoff {
		// Each run is handed over in a buffer that is overwritten as soon as
		// the call returns, as a connection may.
		buf := make([]byte, chunk)
		for rest := data; len(rest) > 0; {
			n := copy(buf, rest)
			hc.deliver(buf[:n], nil)
			rest = rest[n:]
			for i := range buf {
				buf[i] = 0xa5
			}
		}
		hc.deliver(nil, io.EOF)
	} else {
		close(start)
	}
	out := make([]string, len(calls))
	for i, call := range calls {
		reply, err := call.Wait(ctx)
		switch {
		case errors.Is(err, context.DeadlineExceeded):
			t.Fatalf("call %d still pending 5s after the server's bytes ran out", i+1)
		case err != nil:
			out[i] = "error " + err.Error()
		default:
			out[i] = fmt.Sprintf("%T", reply)
		}
	}
	return out
}

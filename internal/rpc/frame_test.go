package rpc

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/dsrhaslab/sdscale/internal/transport/simnet"
	"github.com/dsrhaslab/sdscale/internal/wire"
)

// frameLog is a reader that keeps copies of the frames it is handed, cut as
// the client's and the server's readers cut them, and the error that ended
// the stream: a malformed frame's, or the end's.
type frameLog struct {
	part   partial
	hs     []frameHeader
	bodies [][]byte
	err    error
	taken  int // the frames next has returned
}

func (l *frameLog) arrive(b []byte, end error) {
	if l.err != nil {
		return
	}
	b = l.part.join(b)
	for {
		h, body, rest, err := cut(b)
		if err != nil {
			l.err = err
			return
		}
		if body == nil {
			break
		}
		l.hs = append(l.hs, h)
		l.bodies = append(l.bodies, append([]byte(nil), body...))
		b = rest
	}
	l.err = l.part.keep(b, end)
}

// readFrames pumps r into a frameLog until r ends.
func readFrames(r io.Reader) *frameLog {
	l := &frameLog{}
	pump(r, l)
	return l
}

// next returns the first frame it has not returned yet, reading from r only
// until that frame is whole, or the error that ended the stream.
func (l *frameLog) next(r io.Reader) (frameHeader, []byte, error) {
	buf := make([]byte, frameBufSize)
	for l.taken == len(l.hs) && l.err == nil {
		n, err := r.Read(buf)
		l.arrive(buf[:n], nil)
		if err != nil {
			l.arrive(nil, err)
		}
	}
	if l.taken == len(l.hs) {
		return frameHeader{}, nil, l.err
	}
	l.taken++
	return l.hs[l.taken-1], l.bodies[l.taken-1], nil
}

// arriveCase is a stream a client's reader is handed, how many of its two
// pending calls the whole frames before the fault answer, and the error the
// rest of the calls and the client then fail with.
type arriveCase struct {
	name   string
	stream []byte
	frames int
	want   error
}

// twoResponses returns two response frames, for calls 1 and 2, and the
// stream of both. The second's 300 bytes of text make a two-byte length
// prefix, so a cut can fall inside it.
func twoResponses() (first, second, full []byte) {
	hist := wire.NewFloatHistory()
	first = appendFrame(nil, frameHeader{id: 1, kind: kindResponse}, &wire.HeartbeatAck{EchoUnixMicros: 5}, hist)
	second = appendFrame(nil, frameHeader{id: 2, kind: kindResponse}, &wire.ErrorReply{Text: strings.Repeat("y", 300)}, hist)
	return first, second, slices.Concat(first, second)
}

// checkArrive hands each case's stream to a client with two calls pending,
// in runs of one byte, of seven bytes and in one run, then ends it with
// io.EOF. The calls of the whole frames before a fault must complete, the
// rest fail with the fault's error, and the client with it too. A frame
// error, unlike the stream's end, also closes the connection.
func checkArrive(t *testing.T, cases []arriveCase) {
	t.Helper()
	for _, c := range cases {
		for _, run := range []int{1, 7, max(len(c.stream), 1)} {
			conn := &handoffConn{fuzzConn: &fuzzConn{}}
			cli := newClient(conn, DialOptions{})
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			calls := []*Call{cli.Go(ctx, &wire.Heartbeat{}), cli.Go(ctx, &wire.Heartbeat{})}
			for rest := c.stream; len(rest) > 0; {
				n := min(run, len(rest))
				conn.deliver(rest[:n], nil)
				rest = rest[n:]
			}
			conn.deliver(nil, io.EOF)
			for i, call := range calls {
				_, err := call.Wait(ctx)
				var er *wire.ErrorReply
				answered := err == nil || errors.As(err, &er)
				if answered != (i < c.frames) || (!answered && !errors.Is(err, c.want)) {
					t.Errorf("%s, runs of %d: call %d ended with %v; want %d calls answered, then %v",
						c.name, run, i+1, err, c.frames, c.want)
				}
			}
			if err := cli.Err(); !errors.Is(err, c.want) {
				t.Errorf("%s, runs of %d: client failed with %v, want %v", c.name, run, err, c.want)
			}
			frameErr := c.want != io.EOF && c.want != io.ErrUnexpectedEOF
			if closed := conn.isClosed(); closed != frameErr {
				t.Errorf("%s, runs of %d: connection closed %v, want %v", c.name, run, closed, frameErr)
			}
			cancel()
			cli.Close()
		}
	}
}

// TestReadFrameRejectsOversize: a length prefix must be the canonical
// uvarint of a length in [1, MaxFrameSize], at most four bytes. Anything
// else is an error before any body byte arrives, after the calls of the
// whole frames before it are answered, and closes the connection.
func TestReadFrameRejectsOversize(t *testing.T) {
	first, _, _ := twoResponses()
	checkArrive(t, []arriveCase{
		{"above MaxFrameSize", slices.Concat(first, binary.AppendUvarint(nil, MaxFrameSize+1)), 1, ErrFrameTooLarge},
		{"five bytes", []byte{0x80, 0x80, 0x80, 0x80, 0x01}, 0, errBadLength},
		{"five bytes, non-canonical", []byte{0x81, 0x80, 0x80, 0x80, 0x00}, 0, errBadLength},
		{"four continuation bytes", slices.Concat(first, []byte{0xFF, 0xFF, 0xFF, 0xFF}), 1, errBadLength},
		{"non-canonical", []byte{0x85, 0x00}, 0, errBadLength},
		{"zero length", slices.Concat(first, []byte{0x00}), 1, errBadLength},
		// An older build's fixed 4-byte big-endian length starts with a zero
		// byte for any frame under 16 MiB.
		{"older build's prefix", []byte{0, 0, 0, 10}, 0, errBadLength},
		// The largest frame is announced legally; its missing body is then
		// a truncation.
		{"MaxFrameSize announced", binary.AppendUvarint(nil, MaxFrameSize), 0, io.ErrUnexpectedEOF},
	})
}

// TestReadFrameTruncated: a stream that ends between frames ends with
// io.EOF; one that ends inside a length prefix or a body ends with
// io.ErrUnexpectedEOF, after the calls of every whole frame before the cut
// were answered.
func TestReadFrameTruncated(t *testing.T) {
	first, _, full := twoResponses()
	var cases []arriveCase
	for end := 0; end <= len(full); end++ {
		c := arriveCase{fmt.Sprintf("EOF at %d/%d", end, len(full)), full[:end], 0, io.ErrUnexpectedEOF}
		switch {
		case end == 0:
			c.want = io.EOF
		case end == len(first):
			c.frames, c.want = 1, io.EOF
		case end == len(full):
			c.frames, c.want = 2, io.EOF
		case end > len(first):
			c.frames = 1
		}
		cases = append(cases, c)
	}
	checkArrive(t, cases)
}

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
				var fr frameLog
				if h, _, err := fr.next(c); err == nil {
					_, _ = c.Write(legacyFrame(h.id, kind))
					_, _, _ = fr.next(c) // hold the connection until the client drops it
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
// the request freelist on or off, once through a pump whose Reads return
// runs of a fuzzed size and once in one run handed off to a NonBlocking
// server. The server must not panic, must be done with the connection within
// a deadline of its input running out, and must write only responses, each
// answering a distinct well-formed request (kind 4, or kind 7 decoded
// against the connection's request history) that precedes the first frame
// it cannot accept. A cancel frame (kind 2) is one it cannot accept. Both
// ways must write the same bytes.
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
		in := readFrames(bytes.NewReader(data))
		dec := &wire.DecodeOpts{Version: wire.CodecV2}
		histDec := &wire.DecodeOpts{Version: wire.CodecV2, Hist: wire.NewFloatHistory()}
		for i, h := range in.hs {
			if h.kind != kindRequest && h.kind != kindHistRequest {
				break
			}
			d := dec
			if h.kind == kindHistRequest {
				d = histDec
			}
			if _, err := wire.DecodeWith(in.bodies[i], d); err != nil {
				break
			}
			may[h.id]++
		}

		written := serveBytes(t, handler, data, reuse, false, int(chunk)+1)
		if inline := serveBytes(t, handler, data, reuse, true, len(data)); !bytes.Equal(inline, written) {
			t.Fatalf("served inline, the server wrote %x; through its pump, %x", inline, written)
		}

		out, hist := readFrames(bytes.NewReader(written)), wire.NewFloatHistory()
		if out.err != io.EOF {
			t.Fatalf("server wrote a malformed frame: %v", out.err)
		}
		for i, h := range out.hs {
			body := out.bodies[i]
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

// chunkedConn is a fuzzConn whose reads wait for start and then return at
// most chunk bytes each.
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

// FuzzClientConn feeds arbitrary server bytes to a client with three calls
// pending (request IDs 1 to 3), once through a pump whose Reads return runs
// of a fuzzed size and once in one run through a connection that hands its
// reads off. The client must not panic, every call must complete with a
// reply or an error within a deadline of the bytes running out, and each
// call must end the same way both ways.
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
		pumped := clientOutcomes(t, data, int(chunk)+1, false)
		handoff := clientOutcomes(t, data, 0, true)
		for i := range pumped {
			if pumped[i] != handoff[i] {
				t.Fatalf("call %d ended with %s through a pump and %s through a hand-off", i+1, pumped[i], handoff[i])
			}
		}
	})
}

// clientOutcomes issues FuzzClientConn's three calls, delivers data to the
// client (through a pump in runs of chunk bytes, or through a hand-off in
// one run), and returns how each call ended: its reply's type, or its error.
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
		// The run is handed over in a buffer that is overwritten as soon as
		// the call returns, as a connection may.
		buf := slices.Clone(data)
		hc.deliver(buf, nil)
		for i := range buf {
			buf[i] = 0xa5
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

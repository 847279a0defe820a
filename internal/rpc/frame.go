// Package rpc implements the request/response protocol the sdscale control
// plane speaks between controllers and data-plane stages.
//
// The paper's prototype uses gRPC; rpc provides the equivalent semantics on
// top of any transport.Network with the standard library only:
//
//   - length-prefixed frames carrying wire messages;
//   - request multiplexing: one connection carries many in-flight calls,
//     correlated by request ID, so a controller keeps exactly one connection
//     per child regardless of cycle concurrency;
//   - per-connection ordered request handling on the server (like a gRPC
//     stream), with concurrency across connections;
//   - one read path: on either end, a connection's bytes reach one arrive,
//     which cuts them into frames and handles each in order. A connection
//     that hands its reads off (an untimed simnet one) calls arrive on the
//     goroutine that wrote the bytes; any other gets one pump goroutine,
//     the package's only Read;
//   - deadlines and cancellation: a call abandoned via its context fails at
//     once on the client, which sends nothing for it; its response, which
//     the server still writes, is counted (Client.late) and
//     dropped when it arrives;
//   - fail-fast connection faults: a dead connection fails its in-flight
//     calls and every later one with ErrDisconnected, and a client never
//     redials (its owner dials a new one, as the controllers' pre-cycle
//     sweep does);
//   - an asynchronous call API (Client.Go returning a recycled *Call handle)
//     that pipelines many requests back-to-back over one connection — the
//     path of the control cycle's collect and enforce fan-out, and
//     Call.WaitDeadline, which gives up on a re-armable timer in place of
//     a context per call;
//   - a scatter-gather helper with bounded parallelism and cooperative
//     cancellation, for the probes, the peer exchange and state sync.
package rpc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"

	"github.com/dsrhaslab/sdscale/internal/transport"
	"github.com/dsrhaslab/sdscale/internal/wire"
)

// frameBufs recycles the buffers of the frames no connection end owns: a
// SharedFrame's body and a Push. A client encodes its requests into a
// buffer of its own, under its write lock, and a server connection its
// responses, in respond; neither takes one from here per call.
var frameBufs = sync.Pool{New: func() any {
	b := make([]byte, 0, 1024)
	return &b
}}

// maxPooledFrameBuf bounds the buffers that are kept, in the pool or by a
// connection end: the occasional giant Enforce batch should not pin
// megabytes.
const maxPooledFrameBuf = 1 << 20

func getFrameBuf() *[]byte { return frameBufs.Get().(*[]byte) }

func putFrameBuf(bp *[]byte) {
	if cap(*bp) > maxPooledFrameBuf {
		return
	}
	frameBufs.Put(bp)
}

// keepFrameBuf returns what a connection end keeps of the buffer it just
// wrote a frame from: the buffer, for its next frame, unless it grew past
// maxPooledFrameBuf.
func keepFrameBuf(b []byte) []byte {
	if cap(b) > maxPooledFrameBuf {
		return nil
	}
	return b
}

// MaxFrameSize bounds a single frame; larger announcements are treated as
// protocol corruption. 64 MiB comfortably fits an Enforce batch for a full
// 10,000-stage cluster, and its length prefix fits in maxLenPrefix bytes.
const MaxFrameSize = 1 << 26

// maxLenPrefix is the longest length prefix a frame may carry: the uvarint
// width of MaxFrameSize.
const maxLenPrefix = 4

// frame kinds. Every body is wire.CodecV2 from a connection's first frame.
// Kinds 0 to 3 are retired (the fixed-width request/response pair, the cancel
// frame and the codec hello of older builds) and are not reused: either end
// drops a connection on a kind it does not know, so an older build is refused
// at its first frame rather than misparsed.
const (
	// kindRequest bodies are encoded statelessly, so one encoding can be
	// broadcast to many connections (SharedFrame). kindResponse bodies carry
	// the connection's response history, which the single-reader/
	// single-writer pairing keeps in lockstep.
	kindRequest  = 4
	kindResponse = 5
	// kindPush is a server-initiated frame: an unsolicited message the
	// serving side writes on an established connection (id 0, no reply
	// expected). Its body is always encoded statelessly — it must not touch
	// the connection's response history, which stays in lockstep with
	// solicited responses.
	kindPush = 6
	// kindHistRequest bodies carry the connection's request history. The
	// client encodes them under its write lock, so the history advances in
	// exactly the order the server reads the frames.
	kindHistRequest = 7
)

// ErrFrameTooLarge reports an oversized frame announcement.
var ErrFrameTooLarge = errors.New("rpc: frame exceeds maximum size")

// errBadLength reports a length prefix that is not the canonical uvarint
// encoding of a length in [1, MaxFrameSize].
var errBadLength = errors.New("rpc: bad frame length")

// frameHeader is the fixed metadata carried by every frame.
type frameHeader struct {
	id   uint64 // request correlation ID
	kind byte   // kindRequest, kindResponse, ...
}

// beginFrame appends a one-byte length placeholder and the header. endFrame
// fills the placeholder in once the body is appended.
func beginFrame(buf []byte, h frameHeader) []byte {
	buf = append(buf, 0)
	buf = binary.AppendUvarint(buf, h.id)
	return append(buf, h.kind)
}

// endFrame writes the uvarint length of the frame that beginFrame started at
// start. A frame of 128 bytes or more needs a wider prefix than the one byte
// reserved, so its contents shift right to make room; control-cycle frames
// are shorter and never move.
func endFrame(buf []byte, start int) []byte {
	n := len(buf) - start - 1
	var prefix [binary.MaxVarintLen64]byte
	w := binary.PutUvarint(prefix[:], uint64(n))
	if w > 1 {
		buf = append(buf, prefix[1:w]...) // room for the wider prefix
		copy(buf[start+w:], buf[start+1:start+1+n])
	}
	copy(buf[start:], prefix[:w])
	return buf
}

// appendFrame encodes a complete frame (length prefix, header, message) into
// buf and returns the extended slice. The body is delta-coded against hist
// when it is non-nil, and stateless otherwise.
func appendFrame(buf []byte, h frameHeader, m wire.Message, hist *wire.FloatHistory) []byte {
	start := len(buf)
	buf = beginFrame(buf, h)
	buf = wire.EncodeWith(buf, m, wire.CodecV2, hist)
	return endFrame(buf, start)
}

// appendSharedFrame encodes a frame whose body is already encoded (a
// SharedFrame's): the per-call work is just the header plus one memcopy,
// which is what makes broadcast fan-outs marshal-once.
func appendSharedFrame(buf []byte, h frameHeader, body []byte) []byte {
	start := len(buf)
	buf = beginFrame(buf, h)
	buf = append(buf, body...)
	return endFrame(buf, start)
}

// frameLen parses the length prefix at the front of b. It returns the frame
// length and the prefix width, or a zero width while the prefix is still
// incomplete. A prefix wider than maxLenPrefix, a non-canonical one (a
// trailing zero byte), a zero length and a length over MaxFrameSize are
// errors.
func frameLen(b []byte) (n, w int, err error) {
	var x int
	for i, c := range b {
		if i == maxLenPrefix {
			return 0, 0, errBadLength
		}
		x |= int(c&0x7f) << (7 * i)
		if c < 0x80 {
			switch {
			case x == 0 || (i > 0 && c == 0):
				return 0, 0, errBadLength
			case x > MaxFrameSize:
				return 0, 0, fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, x)
			}
			return x, i + 1, nil
		}
	}
	if len(b) >= maxLenPrefix {
		return 0, 0, errBadLength
	}
	return 0, 0, nil
}

// cut splits the first whole frame off b: it returns the frame's header and
// body, and the rest of b. A nil body means that b holds no whole frame yet,
// or that the first one is malformed, which err then says.
func cut(b []byte) (h frameHeader, body, rest []byte, err error) {
	n, w, err := frameLen(b)
	if err != nil || w == 0 || len(b) < w+n {
		return h, nil, b, err
	}
	frame, rest := b[w:w+n], b[w+n:]
	id, sz := binary.Uvarint(frame)
	switch {
	case sz <= 0:
		return h, nil, rest, errors.New("rpc: bad frame header")
	case sz >= len(frame):
		return h, nil, rest, errors.New("rpc: truncated frame header")
	}
	return frameHeader{id: id, kind: frame[sz]}, frame[sz+1:], rest, nil
}

// partial is the start of a frame whose rest has not arrived yet.
type partial []byte

// join returns b behind the bytes p holds, which are then b's.
func (p *partial) join(b []byte) []byte {
	if len(*p) == 0 {
		return b
	}
	*p = append(*p, b...)
	return *p
}

// keep holds rest, which follows the last whole frame, until the next join.
// A rest as long as what p holds is what p holds, since nothing was cut from
// it; it stays in place, so a frame that arrives a byte at a time is not
// copied once per byte. A non-nil end ends the stream instead, and keep
// returns it: as io.ErrUnexpectedEOF for an io.EOF that falls inside a frame.
func (p *partial) keep(rest []byte, end error) error {
	if end == nil {
		if len(rest) != len(*p) {
			*p = append((*p)[:0], rest...)
		}
		return nil
	}
	*p = nil
	if end == io.EOF && len(rest) > 0 {
		return io.ErrUnexpectedEOF
	}
	return end
}

// reader takes a connection's bytes: each run in the order it arrived, then
// the end of the stream, one call at a time. b is valid only during the
// call. The client's replyReader and the server's srvConn each loop over cut
// in arrive and pass each header and body to their own frame method. A
// callback per frame, a method value in place of this interface, or a frame
// method that parses its own header each deepens a pump's stack past the
// size a TCP fleet's pumps fit in (TestTCPFleetStackPerStage).
type reader interface {
	arrive(b []byte, end error)
}

// startReads delivers conn's bytes to r: through the connection's hand-off
// (transport.HandoffConn) when handoff is set and conn offers one, and
// through a pump otherwise.
func startReads(conn net.Conn, r reader, handoff bool) {
	if hc, ok := conn.(transport.HandoffConn); ok && handoff && hc.HandoffReads(r.arrive) {
		return
	}
	go pump(conn, r)
}

// frameBufSize is the buffer a pump starts with.
const frameBufSize = 512

// pump is the goroutine of a connection that does not hand its reads off:
// it passes each Read's bytes, and then the error that ended the stream, to
// r. A Read that fills the buffer doubles it, up to MaxFrameSize, so a large
// frame takes a few reads rather than one per 512 bytes.
func pump(conn io.Reader, r reader) {
	buf := make([]byte, frameBufSize)
	for {
		n, err := conn.Read(buf)
		if n > 0 {
			r.arrive(buf[:n], nil)
		}
		if err != nil {
			r.arrive(nil, err)
			return
		}
		if n == len(buf) && n < MaxFrameSize {
			buf = make([]byte, 2*n)
		}
	}
}

// msgTable holds one message per type for a connection's reuse paths. It is
// indexed by the type byte and grown on first use — a map here costs a hash
// per decoded frame — and a type is one byte, so it never exceeds 256 slots.
type msgTable []wire.Message

// slot returns the table's entry for t.
func (tb *msgTable) slot(t wire.MsgType) *wire.Message {
	if int(t) >= len(*tb) {
		*tb = append(*tb, make([]wire.Message, int(t)+1-len(*tb))...)
	}
	return &(*tb)[t]
}

// cached returns the table's message of type t, creating it on first use
// (nil for an unknown type). hit reports that it was already there.
func (tb *msgTable) cached(t wire.MsgType) (m wire.Message, hit bool) {
	slot := tb.slot(t)
	if *slot != nil {
		return *slot, true
	}
	*slot = wire.New(t)
	return *slot, false
}

// reusableReply lists the response types eligible for the client-side reuse
// cache: high-frequency, slice-bearing or hot replies that controllers
// consume within the cycle that received them and never retain by pointer.
func reusableReply(t wire.MsgType) bool {
	switch t {
	case wire.TCollectReply, wire.TCollectAggReply, wire.TEnforceAck,
		wire.THeartbeatAck, wire.TPeerExchangeAck:
		return true
	}
	return false
}

// reusableRequest lists the request types eligible for the server-side
// freelist. Registration and state-bearing messages (Register, StateSync,
// PeerExchange) are excluded: handlers retain them past the response.
func reusableRequest(t wire.MsgType) bool {
	switch t {
	case wire.TCollect, wire.TEnforce, wire.THeartbeat, wire.TDelegate:
		return true
	}
	return false
}

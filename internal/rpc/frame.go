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
//   - deadline and cancellation propagation: a call abandoned via its
//     context sends a best-effort cancel frame so the server can skip the
//     request if it has not started executing, and responses that arrive
//     after abandonment are counted (Client.LateResponses) and dropped;
//   - connection fault recovery via ReconnectingClient: redial with
//     exponential backoff and jitter, failing in-flight calls fast;
//   - an asynchronous call API (Client.Go returning a pooled *Call handle)
//     that pipelines many requests back-to-back over one connection — the
//     fast path of the control cycle's collect and enforce fan-out;
//   - a scatter-gather helper with bounded parallelism and cooperative
//     cancellation, the blocking fan-out primitive kept for paper-fidelity
//     reproduction of the prototype's bounded thread pool.
package rpc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"

	"github.com/dsrhaslab/sdscale/internal/wire"
)

// frameBufs recycles frame encode buffers across clients, servers, and
// connections: a controller fanning out to thousands of children would
// otherwise regrow an encode buffer per call per cycle. Decoded messages
// never alias these buffers (see readFrame), so recycling is safe.
var frameBufs = sync.Pool{New: func() any {
	b := make([]byte, 0, 1024)
	return &b
}}

// maxPooledFrameBuf bounds what goes back into the pool: the occasional
// giant Enforce batch should not pin megabytes inside it.
const maxPooledFrameBuf = 1 << 20

func getFrameBuf() *[]byte { return frameBufs.Get().(*[]byte) }

func putFrameBuf(bp *[]byte) {
	if cap(*bp) > maxPooledFrameBuf {
		return
	}
	frameBufs.Put(bp)
}

// MaxFrameSize bounds a single frame; larger announcements are treated as
// protocol corruption. 64 MiB comfortably fits an Enforce batch for a full
// 10,000-stage cluster.
const MaxFrameSize = 64 << 20

// frame kinds. A frame's kind also names the codec version of its body, so
// codec upgrades are self-describing mid-stream and never ambiguous.
const (
	kindRequest  = 0
	kindResponse = 1
	// kindCancel withdraws an earlier request by ID. It carries no message
	// body. The server drops the request if it is still queued (or, when it
	// is currently executing, suppresses the response); no reply is ever
	// sent for a cancel frame. Because frames are delivered in order, a
	// cancel always trails the request it refers to.
	kindCancel = 2
	// kindHello negotiates the wire codec. Its body is a v1-encoded
	// wire.Heartbeat whose SentUnixMicros field carries the sender's maximum
	// codec version — chosen so a pre-v2 peer decodes the frame cleanly and
	// then drops the unknown kind on the floor, which downgrades both sides
	// to v1 without any round trip. The client sends a hello (id 0) as its
	// first frame; a v2-capable server replies in kind with the agreed
	// version and switches its responses to that codec from then on.
	kindHello = 3
	// kindRequestV2 and kindResponseV2 carry wire.CodecV2 bodies. Requests
	// are encoded statelessly (concurrent senders cannot share a float
	// history); responses carry the connection's response history, which the
	// single-reader/single-writer pairing keeps in lockstep.
	kindRequestV2  = 4
	kindResponseV2 = 5
	// kindPush is a server-initiated frame: an unsolicited message the
	// serving side writes on an established connection (id 0, no reply
	// expected). Its body is always encoded statelessly at wire.CodecV2 —
	// it must not touch the connection's response history, which stays in
	// lockstep with solicited responses. Pushes are only written on
	// connections that negotiated v2; a pre-push client's readLoop drops
	// the unknown kind on the floor, so interop needs no handshake change.
	kindPush = 6
)

// ErrFrameTooLarge reports an oversized frame announcement.
var ErrFrameTooLarge = errors.New("rpc: frame exceeds maximum size")

// frameHeader is the fixed metadata carried by every frame.
type frameHeader struct {
	id   uint64 // request correlation ID
	kind byte   // kindRequest or kindResponse
}

// appendFrame encodes a complete v1 frame (length prefix, header, message)
// into buf and returns the extended slice.
func appendFrame(buf []byte, h frameHeader, m wire.Message) []byte {
	return appendFrameWith(buf, h, m, wire.CodecV1, nil)
}

// appendFrameWith encodes a complete frame with the body in codec version
// ver, optionally delta-coded against hist. The caller must pick h.kind to
// match ver (kindRequestV2/kindResponseV2 for v2 bodies).
func appendFrameWith(buf []byte, h frameHeader, m wire.Message, ver int, hist *wire.FloatHistory) []byte {
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0) // length placeholder
	buf = binary.AppendUvarint(buf, h.id)
	buf = append(buf, h.kind)
	buf = wire.EncodeWith(buf, m, ver, hist)
	binary.BigEndian.PutUint32(buf[start:], uint32(len(buf)-start-4))
	return buf
}

// appendSharedFrame encodes a frame whose body is already encoded (a
// SharedFrame's): the per-call work is just the header plus one memcopy,
// which is what makes broadcast fan-outs marshal-once.
func appendSharedFrame(buf []byte, h frameHeader, body []byte) []byte {
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0) // length placeholder
	buf = binary.AppendUvarint(buf, h.id)
	buf = append(buf, h.kind)
	buf = append(buf, body...)
	binary.BigEndian.PutUint32(buf[start:], uint32(len(buf)-start-4))
	return buf
}

// appendHelloFrame encodes a codec-negotiation hello (or hello reply)
// announcing version. The body is a v1 Heartbeat so pre-v2 peers parse it
// and ignore it (see kindHello).
func appendHelloFrame(buf []byte, version int) []byte {
	return appendFrame(buf, frameHeader{id: 0, kind: kindHello}, &wire.Heartbeat{SentUnixMicros: int64(version)})
}

// parseHello extracts the announced codec version from a hello body.
func parseHello(body []byte) (int, bool) {
	m, err := wire.Decode(body)
	if err != nil {
		return 0, false
	}
	hb, ok := m.(*wire.Heartbeat)
	if !ok || hb.SentUnixMicros < 1 || hb.SentUnixMicros > 1<<16 {
		return 0, false
	}
	return int(hb.SentUnixMicros), true
}

// negotiate clamps the peer's announced version to the newest this build
// speaks.
func negotiate(theirs int) int {
	if theirs < wire.MaxCodec {
		return theirs
	}
	return wire.MaxCodec
}

// appendCancelFrame encodes a body-less cancel frame for request id into buf
// and returns the extended slice.
func appendCancelFrame(buf []byte, id uint64) []byte {
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0) // length placeholder
	buf = binary.AppendUvarint(buf, id)
	buf = append(buf, kindCancel)
	binary.BigEndian.PutUint32(buf[start:], uint32(len(buf)-start-4))
	return buf
}

// readFrame reads one frame from r into buf (which is grown as needed) and
// returns its header and raw body. The body aliases buf, so it is valid only
// until the next readFrame on the same buffer; callers decode it according
// to the frame kind before reading on. Cancel frames carry no body.
func readFrame(r io.Reader, buf []byte) (frameHeader, []byte, []byte, error) {
	// The length prefix is read into the reusable buffer rather than a
	// local array: passing a stack array's slice through the io.Reader
	// interface makes it escape, which costs one heap allocation per frame.
	if cap(buf) < 4 {
		buf = make([]byte, 4, 512)
	}
	if _, err := io.ReadFull(r, buf[:4]); err != nil {
		return frameHeader{}, nil, buf, err
	}
	n := binary.BigEndian.Uint32(buf[:4])
	if n > MaxFrameSize {
		return frameHeader{}, nil, buf, fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, n)
	}
	if cap(buf) < int(n) {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return frameHeader{}, nil, buf, err
	}

	id, sz := binary.Uvarint(buf)
	if sz <= 0 {
		return frameHeader{}, nil, buf, errors.New("rpc: bad frame header")
	}
	if sz >= len(buf) {
		return frameHeader{}, nil, buf, errors.New("rpc: truncated frame header")
	}
	h := frameHeader{id: id, kind: buf[sz]}
	if h.kind == kindCancel {
		return h, nil, buf, nil
	}
	return h, buf[sz+1:], buf, nil
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

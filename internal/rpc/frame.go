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

// frame kinds. Every body is wire.CodecV2 from a connection's first frame.
// Kinds 0, 1 and 3 are retired (the fixed-width request/response pair and the
// codec hello of older builds) and are not reused: either end drops a
// connection on a kind it does not know, so an older build is refused at its
// first frame rather than misparsed.
const (
	// kindCancel withdraws an earlier request by ID. It carries no message
	// body. The server drops the request if it is still queued (or, when it
	// is currently executing, suppresses the response); no reply is ever
	// sent for a cancel frame. Because frames are delivered in order, a
	// cancel always trails the request it refers to.
	kindCancel = 2
	// kindRequest bodies are encoded statelessly (concurrent senders cannot
	// share a float history); kindResponse bodies carry the connection's
	// response history, which the single-reader/single-writer pairing keeps
	// in lockstep.
	kindRequest  = 4
	kindResponse = 5
	// kindPush is a server-initiated frame: an unsolicited message the
	// serving side writes on an established connection (id 0, no reply
	// expected). Its body is always encoded statelessly — it must not touch
	// the connection's response history, which stays in lockstep with
	// solicited responses.
	kindPush = 6
)

// ErrFrameTooLarge reports an oversized frame announcement.
var ErrFrameTooLarge = errors.New("rpc: frame exceeds maximum size")

// frameHeader is the fixed metadata carried by every frame.
type frameHeader struct {
	id   uint64 // request correlation ID
	kind byte   // kindRequest or kindResponse
}

// appendFrame encodes a complete frame (length prefix, header, message) into
// buf and returns the extended slice. The body is delta-coded against hist
// when it is non-nil, and stateless otherwise.
func appendFrame(buf []byte, h frameHeader, m wire.Message, hist *wire.FloatHistory) []byte {
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0) // length placeholder
	buf = binary.AppendUvarint(buf, h.id)
	buf = append(buf, h.kind)
	buf = wire.EncodeWith(buf, m, wire.CodecV2, hist)
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

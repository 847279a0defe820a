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
//   - deadlines and cancellation: a call abandoned via its context fails at
//     once on the client, which sends nothing for it; its response, which
//     the server still writes, is counted (Client.LateResponses) and
//     dropped when it arrives;
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
// never alias these buffers (see frameReader), so recycling is safe.
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

// frameReader reads one connection's frames. Each Read takes whatever has
// arrived into the connection's buffer, and next parses whole frames out of
// it, so a burst of frames costs one Read rather than two per frame. A frame
// that outgrows the buffer grows it.
type frameReader struct {
	r   io.Reader
	buf []byte // bytes read so far; buf[off:] is not yet parsed
	off int
	err error // the Read error that follows buf's last byte
}

// frameBufSize is the buffer a frameReader allocates when it has none.
const frameBufSize = 512

// next returns the next frame's header and raw body. The body aliases the
// reader's buffer, so it is valid only until the following call; callers
// decode it according to the frame kind before reading on. EOF between
// frames is io.EOF, and inside a frame io.ErrUnexpectedEOF.
func (fr *frameReader) next() (frameHeader, []byte, error) {
	for {
		n, w, err := frameLen(fr.buf[fr.off:])
		if err != nil {
			return frameHeader{}, nil, err
		}
		need := w + n
		if w > 0 && len(fr.buf)-fr.off >= need {
			frame := fr.buf[fr.off+w : fr.off+need]
			fr.off += need
			return parseHeader(frame)
		}
		if fr.err != nil {
			if fr.err == io.EOF && len(fr.buf) > fr.off {
				return frameHeader{}, nil, io.ErrUnexpectedEOF
			}
			return frameHeader{}, nil, fr.err
		}
		fr.fill(need)
	}
}

// fill moves the unparsed bytes to the front of the buffer, grows it when
// the frame being read (need bytes, or unknown while need is 0) cannot fit,
// and reads once into the free space.
func (fr *frameReader) fill(need int) {
	if fr.off > 0 {
		n := copy(fr.buf, fr.buf[fr.off:])
		fr.buf, fr.off = fr.buf[:n], 0
	}
	have := len(fr.buf)
	if need <= have {
		need = have + 1
	}
	if need > cap(fr.buf) {
		grown := make([]byte, have, max(need, frameBufSize))
		copy(grown, fr.buf)
		fr.buf = grown
	}
	n, err := fr.r.Read(fr.buf[have:cap(fr.buf)])
	fr.buf, fr.err = fr.buf[:have+n], err
}

// frameHandler handles one frame's header and raw body, which is valid only
// during the call. An error ends the stream.
type frameHandler interface {
	frame(h frameHeader, body []byte) error
}

// frameSplitter cuts the byte runs of a connection that hands its reads off
// (transport.HandoffConn) into frames. Whole frames are handled in place; a
// frame whose rest has not arrived yet is kept until it has. A client's
// reader and a server's inline driver each own one.
type frameSplitter struct {
	part []byte // the start of a frame still arriving
}

// split passes each frame that b completes to h, in order, and then, with a
// non-nil end, ends the stream. It returns the first error, with the
// frameReader's meaning: a malformed frame's, h's, or end, which is
// io.ErrUnexpectedEOF for an io.EOF that falls inside a frame. After an error
// the splitter holds nothing, and the caller must drop what follows.
func (sp *frameSplitter) split(b []byte, end error, h frameHandler) error {
	if len(sp.part) > 0 {
		sp.part = append(sp.part, b...)
		b = sp.part
	}
	var err error
	for err == nil {
		var n, w int
		if n, w, err = frameLen(b); err != nil || w == 0 || len(b) < w+n {
			break
		}
		var fh frameHeader
		var body []byte
		if fh, body, err = parseHeader(b[w : w+n]); err == nil {
			err = h.frame(fh, body)
		}
		b = b[w+n:]
	}
	if err == nil && end != nil {
		err = end
		if end == io.EOF && len(b) > 0 {
			err = io.ErrUnexpectedEOF
		}
	}
	if err != nil {
		sp.part = nil
		return err
	}
	sp.part = append(sp.part[:0], b...)
	return nil
}

// parseHeader splits a frame into its header and body.
func parseHeader(frame []byte) (frameHeader, []byte, error) {
	id, sz := binary.Uvarint(frame)
	if sz <= 0 {
		return frameHeader{}, nil, errors.New("rpc: bad frame header")
	}
	if sz >= len(frame) {
		return frameHeader{}, nil, errors.New("rpc: truncated frame header")
	}
	return frameHeader{id: id, kind: frame[sz]}, frame[sz+1:], nil
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

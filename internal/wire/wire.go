// Package wire implements the compact binary message encoding used by the
// sdscale control plane.
//
// The paper's prototype exchanges protobuf messages over gRPC; sdscale uses
// a hand-rolled, stdlib-only codec with equivalent payload shapes: metric
// reports flowing up from data-plane stages and enforcement rules flowing
// down from controllers. Integers are varint encoded, floating point rates
// are fixed 8-byte IEEE 754, and strings/byte slices are length prefixed.
//
// The codec is deliberately allocation-conscious: encoding appends into a
// caller-supplied buffer and decoding reads from a slice without copying,
// because the control plane marshals tens of thousands of messages per
// control cycle at paper scale.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Errors returned by the decoder. They are sentinel values so transports can
// distinguish truncated frames (retry/ignore) from corrupt ones (fatal).
var (
	// ErrShortBuffer indicates the payload ended before the message did.
	ErrShortBuffer = errors.New("wire: short buffer")
	// ErrOverflow indicates a varint did not terminate within 10 bytes.
	ErrOverflow = errors.New("wire: varint overflows 64 bits")
	// ErrTrailingBytes indicates a message decoded cleanly but left unread
	// payload behind, a sign of a version mismatch between peers.
	ErrTrailingBytes = errors.New("wire: trailing bytes after message")
	// ErrBadLength indicates a length prefix exceeding sanity limits.
	ErrBadLength = errors.New("wire: length prefix exceeds limit")
)

// MaxSliceLen bounds every decoded length prefix. A peer announcing a larger
// collection is treated as corrupt rather than allocated for, which keeps a
// malformed frame from OOMing a controller.
const MaxSliceLen = 1 << 24

// Wire codec versions. V1 is the fixed-width-float encoding, the on-disk
// format of internal/store; V2 encodes floats as tagged varints with optional
// positional history (see Encoder.Float64) and is what every RPC frame
// carries. A reader always knows which one it holds, so the two never need
// to be distinguished in-band.
const (
	// CodecV1 is the fixed-width codec: 8-byte IEEE 754 floats.
	CodecV1 = 1
	// CodecV2 tags each float and varint-encodes the common cases, with
	// optional delta coding against the previous message of the same type.
	CodecV2 = 2
)

// V2 float tags. Order of preference when several apply: f2Same, f2Zero,
// f2Int, f2Delta, f2Raw — the preference is part of the codec (it makes
// encodings deterministic for a given history), not just an optimization.
const (
	// f2Zero encodes exactly 0 (including -0, which canonicalizes to +0).
	f2Zero = 0
	// f2Int encodes an integral value in (0, 2^53] as a uvarint.
	f2Int = 1
	// f2Raw encodes the raw 8-byte IEEE 754 representation.
	f2Raw = 2
	// f2Same repeats the previous same-type message's value at the same
	// position (history-carrying streams only).
	f2Same = 3
	// f2Delta encodes a zig-zag varint integral delta against the previous
	// same-type message's value at the same position (history only).
	f2Delta = 4
)

// maxIntFloat is the largest float64 magnitude whose integral values are all
// exactly representable; beyond it uvarint round-trips would lose precision.
const maxIntFloat = 1 << 53

// FloatHistory carries the per-message-type positional float history that
// powers the v2 codec's f2Same/f2Delta tags. Encoder and decoder each keep
// one per connection direction and MUST observe the same message sequence:
// every encoded history-carrying message must be decoded by the peer, in
// order. The RPC layer guarantees this for responses (single writer per
// connection, single reader draining every frame); requests are encoded
// statelessly precisely because concurrent senders cannot.
//
// A FloatHistory is not safe for concurrent use.
type FloatHistory struct {
	// types is indexed by message type and grown on first use: a type is one
	// byte, so even a corrupt one grows it to 256 entries at most.
	types []*typeHist
}

// typeHist is one message type's history: the float sequence of the previous
// message (prev) and the one being built (cur). At message end the two swap.
type typeHist struct {
	prev, cur []float64
}

// NewFloatHistory returns an empty history.
func NewFloatHistory() *FloatHistory { return &FloatHistory{} }

func (h *FloatHistory) get(t MsgType) *typeHist {
	if int(t) >= len(h.types) {
		h.types = append(h.types, make([]*typeHist, int(t)+1-len(h.types))...)
	}
	th := h.types[t]
	if th == nil {
		th = &typeHist{}
		h.types[t] = th
	}
	return th
}

func (th *typeHist) swap() {
	th.prev, th.cur = th.cur, th.prev[:0]
}

// Encoder appends primitive values to a byte slice. The zero value is ready
// to use; Bytes returns the accumulated encoding.
type Encoder struct {
	buf []byte
	// ver selects the float encoding: values below CodecV2 use the fixed
	// 8-byte v1 form. Integer encodings are identical across versions.
	ver int
	// hist, when non-nil (v2 only), enables the f2Same/f2Delta tags against
	// the previous message of the same type.
	hist *typeHist
}

// NewEncoder returns an Encoder that appends to buf (which may be nil).
// Passing a buffer with spare capacity lets callers amortize allocations
// across messages.
func NewEncoder(buf []byte) *Encoder { return &Encoder{buf: buf} }

// Bytes returns the encoded bytes accumulated so far. The slice aliases the
// encoder's internal buffer and is invalidated by further Put calls.
func (e *Encoder) Bytes() []byte { return e.buf }

// Len returns the number of bytes encoded so far.
func (e *Encoder) Len() int { return len(e.buf) }

// Reset discards the accumulated encoding but keeps the capacity.
func (e *Encoder) Reset() { e.buf = e.buf[:0] }

// Uint64 appends v as an unsigned varint.
func (e *Encoder) Uint64(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }

// Int64 appends v using zig-zag varint encoding.
func (e *Encoder) Int64(v int64) { e.buf = binary.AppendVarint(e.buf, v) }

// Uint32 appends v as an unsigned varint.
func (e *Encoder) Uint32(v uint32) { e.Uint64(uint64(v)) }

// Byte appends a single raw byte.
func (e *Encoder) Byte(b byte) { e.buf = append(e.buf, b) }

// Bool appends a boolean as one byte.
func (e *Encoder) Bool(b bool) {
	if b {
		e.Byte(1)
	} else {
		e.Byte(0)
	}
}

// Float64 appends v in the encoder's codec version. V1 writes the fixed
// 8-byte IEEE 754 representation: observed IOPS are rarely small integers and
// fixed width keeps rule payload sizes predictable. V2 writes a one-byte tag
// and varint-encodes the common cases — zero, small integral values, and
// (when a history is attached) repeats or integral deltas of the previous
// same-type message's value at the same position. Steady-state CollectReply
// streams are dominated by f2Same, cutting float payload from 8 bytes to 1.
func (e *Encoder) Float64(v float64) {
	if e.ver < CodecV2 {
		e.buf = binary.LittleEndian.AppendUint64(e.buf, math.Float64bits(v))
		return
	}
	var prev float64
	hasPrev := false
	if h := e.hist; h != nil {
		if pos := len(h.cur); pos < len(h.prev) {
			prev, hasPrev = h.prev[pos], true
		}
		h.cur = append(h.cur, v)
	}
	switch {
	case hasPrev && prev == v:
		e.Byte(f2Same)
	case v == 0:
		e.Byte(f2Zero)
	case isIntFloat(v):
		e.Byte(f2Int)
		e.Uint64(uint64(v))
	case hasPrev && deltaFits(prev, v):
		e.Byte(f2Delta)
		e.Int64(int64(v - prev))
	default:
		e.Byte(f2Raw)
		e.buf = binary.LittleEndian.AppendUint64(e.buf, math.Float64bits(v))
	}
}

// isIntFloat reports whether v is a positive integer that survives a uvarint
// round trip exactly. Zero is excluded (it has its own tag), as are NaN and
// the infinities (Trunc is not an identity on them).
func isIntFloat(v float64) bool {
	return v > 0 && v <= maxIntFloat && v == math.Trunc(v)
}

// deltaFits reports whether v reconstructs exactly as prev plus an integral
// int64 delta, so the encoder may use the f2Delta tag without loss.
func deltaFits(prev, v float64) bool {
	d := v - prev
	if d != math.Trunc(d) || d < -maxIntFloat || d > maxIntFloat {
		return false
	}
	return prev+float64(int64(d)) == v
}

// Bytes16 appends a length-prefixed byte slice.
func (e *Encoder) Bytes16(b []byte) {
	e.Uint64(uint64(len(b)))
	e.buf = append(e.buf, b...)
}

// String appends a length-prefixed UTF-8 string.
func (e *Encoder) String(s string) {
	e.Uint64(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// Decoder reads primitive values from a byte slice. It never copies the
// underlying data; decoded byte slices alias the input.
type Decoder struct {
	buf []byte
	off int
	err error
	// ver and hist mirror the Encoder's: ver selects the float decoding and
	// hist resolves the v2 f2Same/f2Delta tags. A stateless v2 decoder (hist
	// nil) rejects those tags as corrupt.
	ver  int
	hist *typeHist
}

// NewDecoder returns a Decoder reading from buf.
func NewDecoder(buf []byte) *Decoder { return &Decoder{buf: buf} }

// Err returns the first error encountered while decoding, if any. All Get
// methods become no-ops returning zero values after an error, so callers may
// decode a whole message and check Err once at the end.
func (d *Decoder) Err() error { return d.err }

// Remaining reports how many bytes are left to decode.
func (d *Decoder) Remaining() int { return len(d.buf) - d.off }

// Finish verifies the decoder consumed the buffer exactly. It returns the
// decode error if one occurred, ErrTrailingBytes if payload remains, and nil
// otherwise.
func (d *Decoder) Finish() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.buf) {
		return fmt.Errorf("%w: %d bytes", ErrTrailingBytes, len(d.buf)-d.off)
	}
	return nil
}

func (d *Decoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

// Uint64 reads an unsigned varint.
func (d *Decoder) Uint64() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	switch {
	case n > 0:
		d.off += n
		return v
	case n == 0:
		d.fail(ErrShortBuffer)
	default:
		d.fail(ErrOverflow)
	}
	return 0
}

// Int64 reads a zig-zag varint.
func (d *Decoder) Int64() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf[d.off:])
	switch {
	case n > 0:
		d.off += n
		return v
	case n == 0:
		d.fail(ErrShortBuffer)
	default:
		d.fail(ErrOverflow)
	}
	return 0
}

// Uint32 reads an unsigned varint and reports corruption if it exceeds 32 bits.
func (d *Decoder) Uint32() uint32 {
	v := d.Uint64()
	if v > math.MaxUint32 {
		d.fail(fmt.Errorf("wire: value %d overflows uint32", v))
		return 0
	}
	return uint32(v)
}

// Byte reads a single raw byte.
func (d *Decoder) Byte() byte {
	if d.err != nil {
		return 0
	}
	if d.off >= len(d.buf) {
		d.fail(ErrShortBuffer)
		return 0
	}
	b := d.buf[d.off]
	d.off++
	return b
}

// Bool reads a one-byte boolean.
func (d *Decoder) Bool() bool { return d.Byte() != 0 }

// Float64 reads a float in the decoder's codec version (see Encoder.Float64).
func (d *Decoder) Float64() float64 {
	if d.ver >= CodecV2 {
		return d.float64v2()
	}
	return d.float64raw()
}

// float64raw reads 8 little-endian bytes as an IEEE 754 float.
func (d *Decoder) float64raw() float64 {
	if d.err != nil {
		return 0
	}
	if d.off+8 > len(d.buf) {
		d.fail(ErrShortBuffer)
		return 0
	}
	v := binary.LittleEndian.Uint64(d.buf[d.off:])
	d.off += 8
	return math.Float64frombits(v)
}

// float64v2 reads one tagged v2 float, maintaining positional history when
// the decoder carries one. History references past the previous message's
// float count, or on a history-less stream, are corruption.
func (d *Decoder) float64v2() float64 {
	tag := d.Byte()
	if d.err != nil {
		return 0
	}
	h := d.hist
	var v float64
	switch tag {
	case f2Zero:
	case f2Int:
		v = float64(d.Uint64())
	case f2Raw:
		v = d.float64raw()
	case f2Same, f2Delta:
		if h == nil || len(h.cur) >= len(h.prev) {
			d.fail(fmt.Errorf("wire: float tag %d without matching history", tag))
			return 0
		}
		v = h.prev[len(h.cur)]
		if tag == f2Delta {
			v += float64(d.Int64())
		}
	default:
		d.fail(fmt.Errorf("wire: unknown float tag %d", tag))
		return 0
	}
	if h != nil {
		h.cur = append(h.cur, v)
	}
	return v
}

// Length reads a length prefix and validates it against MaxSliceLen and the
// remaining payload, so callers can pre-allocate safely.
func (d *Decoder) Length() int {
	v := d.Uint64()
	if d.err != nil {
		return 0
	}
	if v > MaxSliceLen {
		d.fail(fmt.Errorf("%w: %d", ErrBadLength, v))
		return 0
	}
	return int(v)
}

// Bytes16 reads a length-prefixed byte slice. The result aliases the input
// buffer; callers that retain it across frames must copy.
func (d *Decoder) Bytes16() []byte {
	n := d.Length()
	if d.err != nil {
		return nil
	}
	if d.off+n > len(d.buf) {
		d.fail(ErrShortBuffer)
		return nil
	}
	b := d.buf[d.off : d.off+n : d.off+n]
	d.off += n
	return b
}

// String reads a length-prefixed string.
func (d *Decoder) String() string { return string(d.Bytes16()) }

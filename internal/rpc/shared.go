package rpc

import (
	"sync"
	"sync/atomic"

	"github.com/dsrhaslab/sdscale/internal/wire"
)

// SharedFrame is a refcounted, immutable, lazily-encoded message body shared
// by every call of a broadcast fan-out. A controller builds one per cycle
// per broadcast (Collect, Heartbeat, StateSync, wildcard Enforce), issues it
// to each child with Client.GoShared — which writes a per-call header
// followed by the shared body, a memcopy instead of a marshal — and releases
// its own reference once the fan-out is issued.
//
// Lifetime: NewSharedFrame returns the producer's reference. Every GoShared
// that reaches the wire (or fails after registration) takes one more,
// released when the call's handle is recycled by Call.Wait. The encoded
// body lives in a pooled buffer that returns to the pool only when the count
// hits zero, so a slow connection still copying the body can never observe
// the buffer being recycled. Wait is the only way to consume a call, so
// every reference a call takes is released.
//
// The body is encoded once, on first use.
type SharedFrame struct {
	msg  wire.Message
	refs atomic.Int64

	// encodes counts encodings performed, for telemetry: a cycle that fans
	// out to 10,000 children reports one encode instead of 10,000 marshals.
	encodes atomic.Uint64

	// encoded is set exactly once (under mu) and read lock-free: a reader
	// necessarily holds a frame reference, and the buffer is only pooled
	// when the count hits zero, so a loaded pointer cannot be recycled while
	// the reader copies from it.
	mu      sync.Mutex
	encoded atomic.Pointer[[]byte]
}

// NewSharedFrame wraps m for broadcast. The message must not be mutated
// until the frame is released by all holders: encoding is lazy, so the
// first call of the fan-out marshals m.
func NewSharedFrame(m wire.Message) *SharedFrame {
	f := &SharedFrame{msg: m}
	f.refs.Store(1)
	return f
}

// Encodes returns how many body encodings the frame performed so far (at
// most one). Safe to read after Release.
func (f *SharedFrame) Encodes() uint64 { return f.encodes.Load() }

// body returns the encoded body, encoding it on first use. The returned
// slice is immutable and stays valid while the caller holds a reference.
func (f *SharedFrame) body() []byte {
	if bp := f.encoded.Load(); bp != nil {
		return *bp
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	bp := f.encoded.Load()
	if bp == nil {
		bp = getFrameBuf()
		// Shared bodies are stateless: many connections with divergent
		// histories decode the same bytes.
		*bp = wire.EncodeWith((*bp)[:0], f.msg, wire.CodecV2, nil)
		f.encoded.Store(bp)
		f.encodes.Add(1)
	}
	return *bp
}

func (f *SharedFrame) retain() { f.refs.Add(1) }

// Release drops one reference. The producer calls it once after issuing the
// fan-out; per-call references release automatically via Call.Wait. When the
// count reaches zero the encoded body returns to the frame buffer pool.
func (f *SharedFrame) Release() {
	n := f.refs.Add(-1)
	if n > 0 {
		return
	}
	if n < 0 {
		panic("rpc: SharedFrame over-released")
	}
	if bp := f.encoded.Swap(nil); bp != nil {
		putFrameBuf(bp)
	}
}

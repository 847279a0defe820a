package rpc

import (
	"sync"
	"sync/atomic"

	"github.com/dsrhaslab/sdscale/internal/wire"
)

// SharedFrame is an immutable, lazily-encoded message body shared by every
// call of a broadcast fan-out. A controller builds one per cycle per
// broadcast (Collect, Heartbeat, StateSync, wildcard Enforce), issues it to
// each child with Client.GoShared — which writes a per-call header followed
// by the shared body, a memcopy instead of a marshal — and releases it once
// the fan-out is issued.
//
// Lifetime: NewSharedFrame returns the producer's one reference, and Release
// gives it back, returning the encoded body's pooled buffer. GoShared copies
// the body into its client's own write buffer before it returns, so no call
// reads the frame afterwards: the producer must release only after every
// GoShared of the frame has returned, and may release before their Waits.
// Every producer does so after joining the goroutines that issued the calls.
//
// The body is encoded once, on first use.
type SharedFrame struct {
	msg      wire.Message
	released atomic.Bool

	// encodes counts encodings performed, for telemetry: a cycle that fans
	// out to 10,000 children reports one encode instead of 10,000 marshals.
	encodes atomic.Uint64

	// encoded is set exactly once (under mu) and read lock-free: a reader
	// runs inside a GoShared, which the producer's reference outlives, so a
	// loaded pointer cannot be recycled while the reader copies from it.
	mu      sync.Mutex
	encoded atomic.Pointer[[]byte]
}

// NewSharedFrame wraps m for broadcast. The message must not be mutated
// until the frame is released: encoding is lazy, so the first call of the
// fan-out marshals m.
func NewSharedFrame(m wire.Message) *SharedFrame {
	return &SharedFrame{msg: m}
}

// Encodes returns how many body encodings the frame performed so far (at
// most one). Safe to read after Release.
func (f *SharedFrame) Encodes() uint64 { return f.encodes.Load() }

// body returns the encoded body, encoding it on first use. The returned
// slice is immutable and stays valid until the frame is released.
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

// Release drops the producer's reference, once every GoShared of the frame
// has returned, and returns the encoded body to the frame buffer pool. A
// second Release panics.
func (f *SharedFrame) Release() {
	if f.released.Swap(true) {
		panic("rpc: SharedFrame over-released")
	}
	if bp := f.encoded.Swap(nil); bp != nil {
		putFrameBuf(bp)
	}
}

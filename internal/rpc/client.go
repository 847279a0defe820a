package rpc

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/dsrhaslab/sdscale/internal/monitor"
	"github.com/dsrhaslab/sdscale/internal/trace"
	"github.com/dsrhaslab/sdscale/internal/transport"
	"github.com/dsrhaslab/sdscale/internal/wire"
)

// ErrClientClosed is returned by calls on a closed client.
var ErrClientClosed = errors.New("rpc: client closed")

// Client is one end of a multiplexed RPC connection. It is safe for
// concurrent use: many calls may be in flight at once over the single
// underlying connection.
type Client struct {
	conn net.Conn
	cpu  *monitor.CPUMeter // optional; charged with marshal/write time

	// tracer, if non-nil, receives one span per call (issue → completion,
	// with marshal/write sub-timings) tagged with spanTag. Spans are
	// recorded on the completion paths — the read loop, abandonment, or
	// failure — never on the issue path, so pipelined fan-outs pay only the
	// timestamps.
	tracer  *trace.Tracer
	spanTag uint64

	// wmu serializes frame writes, and guards txHist: the request history
	// kind-7 bodies are encoded against, which advances in write order.
	wmu    sync.Mutex
	txHist *wire.FloatHistory

	mu      sync.Mutex
	nextID  uint64
	pending map[uint64]*Call
	err     error // set once the read loop dies
	closed  bool

	late atomic.Uint64 // responses that arrived after their call was abandoned

	// reuseReplies enables the read loop's per-type reply cache (see
	// DialOptions.ReuseReplies); reuseHits counts decodes into it.
	reuseReplies bool
	reuseHits    *atomic.Uint64

	// onPush receives unsolicited server-initiated messages; see
	// DialOptions.OnPush.
	onPush func(m wire.Message)

	done chan struct{}
}

// Call is the completion handle of an asynchronous request issued with
// Client.Go. Exactly one of two consumption patterns must be used:
//
//   - call Wait, which blocks for completion, returns the outcome, and
//     recycles the handle; or
//   - receive from Done, read Reply/Err, and never touch the handle again
//     (it is garbage collected instead of recycled).
//
// After Wait returns the handle must not be used: it may already carry a
// different in-flight call.
type Call struct {
	// Done receives the Call itself once it completes. It is buffered, so
	// completion never blocks on a slow consumer.
	Done chan *Call
	// Reply is the response message. Valid only after completion.
	Reply wire.Message
	// Err is the call's failure, if any: a transport error, ErrClientClosed,
	// or a remote *wire.ErrorReply. Valid only after completion.
	Err error

	id     uint64
	client *Client // nil for calls that failed before registration

	// shared pins the broadcast frame a GoShared call wrote, released when
	// the handle is recycled — the frame's pooled bodies outlive every
	// in-flight copy of them.
	shared *SharedFrame

	// Span timings, populated by send when the client traces: issue time
	// (unix nanoseconds; doubles as the "this call is traced" marker),
	// frame-encode time, and connection-write time. Atomic because the
	// write timing lands after the frame is on the wire, so a fast
	// response's completion (on the read loop) can race it; a span that
	// loses that race reports a zero write sub-timing rather than a torn
	// value.
	issuedNs  atomic.Int64
	marshalNs atomic.Int64
	writeNs   atomic.Int64
}

// callPool recycles Call handles together with their embedded completion
// channels, so a pipelined fan-out over thousands of children does not
// allocate a handle and a channel per call per cycle.
var callPool = sync.Pool{New: func() any { return &Call{Done: make(chan *Call, 1)} }}

func getCall() *Call { return callPool.Get().(*Call) }

// putCall returns a handle to the pool. The caller must be the handle's sole
// owner and its Done channel must be empty (completion consumed, or provably
// never delivered).
func putCall(call *Call) {
	if call.shared != nil {
		call.shared.Release()
		call.shared = nil
	}
	call.Reply, call.Err, call.id, call.client = nil, nil, 0, nil
	call.issuedNs.Store(0)
	call.marshalNs.Store(0)
	call.writeNs.Store(0)
	callPool.Put(call)
}

// finish records the outcome and delivers the handle to Done. A remote
// *wire.ErrorReply lands in Err, matching the synchronous Call contract.
// Only the goroutine that removed the call from the pending map may call it.
func (call *Call) finish(m wire.Message, err error) {
	if er, ok := m.(*wire.ErrorReply); ok {
		m, err = nil, er
	}
	if c := call.client; c != nil && c.tracer != nil {
		if issued := call.issuedNs.Load(); issued != 0 {
			c.tracer.RecordClientCall(c.spanTag, call.id, issued,
				time.Now().UnixNano()-issued, call.marshalNs.Load(), call.writeNs.Load(),
				err != nil, false)
		} else {
			// Not on the sample grid: counted, never timed.
			c.tracer.CountClientCall(err != nil, false)
		}
	}
	call.Reply, call.Err = m, err
	call.Done <- call
}

// failedCall returns a pre-completed handle carrying err, for calls rejected
// before they reach a connection.
func failedCall(err error) *Call {
	call := getCall()
	call.finish(nil, err)
	return call
}

// Wait blocks until the call completes or ctx is cancelled, returns the
// outcome, and recycles the handle. On cancellation the request is abandoned
// exactly as a context-cancelled synchronous Call: it is deregistered, and
// its response, which the server still sends, is dropped and counted when it
// arrives. Nothing is sent for an abandoned call. The handle must not be
// used after Wait returns.
func (call *Call) Wait(ctx context.Context) (wire.Message, error) {
	c := call.client
	if c == nil {
		// Pre-failed handle: completion is already buffered in Done.
		<-call.Done
		return call.release()
	}
	select {
	case <-call.Done:
		return call.release()
	case <-ctx.Done():
		if c.deregister(call) {
			// We removed the call from the pending map, so no completion
			// was — or ever will be — delivered: the handle is exclusively
			// ours and its Done channel is empty.
			if c.tracer != nil {
				if issued := call.issuedNs.Load(); issued != 0 {
					// The span closes at abandonment: the caller stopped
					// waiting, so this is where the call's cost ends for it.
					c.tracer.RecordClientCall(c.spanTag, call.id, issued,
						time.Now().UnixNano()-issued, call.marshalNs.Load(), call.writeNs.Load(),
						true, true)
				} else {
					c.tracer.CountClientCall(true, true)
				}
			}
			err := ctx.Err()
			putCall(call)
			return nil, err
		}
		// Completion raced with the cancellation and won; take the result.
		<-call.Done
		return call.release()
	}
}

// release extracts the outcome and recycles the handle. The completion must
// already have been consumed from Done.
func (call *Call) release() (wire.Message, error) {
	reply, err := call.Reply, call.Err
	putCall(call)
	return reply, err
}

// DialOptions configures Dial.
type DialOptions struct {
	// Meter, if non-nil, is charged with the connection's traffic.
	Meter *transport.Meter
	// CPU, if non-nil, is charged with local marshal and write time, the
	// client-side share of per-message processing cost.
	CPU *monitor.CPUMeter
	// Tracer, if non-nil, receives one span per call issued on this
	// connection; SpanTag identifies the remote end in those spans
	// (controllers set their child's ID).
	Tracer  *trace.Tracer
	SpanTag uint64
	// ReuseReplies opts into the zero-alloc decode path: responses decode
	// into one cached message per type, reusing its backing arrays. The
	// aliasing contract moves to the caller — a decoded reply is valid only
	// until the next response of the same type arrives on this connection,
	// so enable it only where replies are consumed within the cycle and
	// never retained by pointer (the controllers deep-copy what they keep).
	ReuseReplies bool
	// ReuseHits, if non-nil, is incremented once per reply decoded into a
	// reused message.
	ReuseHits *atomic.Uint64
	// OnPush, if non-nil, receives unsolicited server-initiated messages
	// (kindPush frames) arriving on this connection. It runs on the read
	// loop, so it must not block and must not retain the message past
	// returning — the next push of the same shape may reuse its memory.
	// Nil clients drop push frames on the floor.
	OnPush func(m wire.Message)
}

// Dial connects to an RPC server at addr over network.
func Dial(ctx context.Context, network transport.Network, addr string, opts DialOptions) (*Client, error) {
	conn, err := network.Dial(ctx, addr)
	if err != nil {
		return nil, err
	}
	return newClient(transport.WithMeter(conn, opts.Meter), opts), nil
}

// NewClient wraps an established connection as an RPC client and starts its
// read loop. The client takes ownership of conn.
func NewClient(conn net.Conn) *Client { return newClient(conn, DialOptions{}) }

// newClient builds the client completely and only then starts its read loop,
// which reads every field set from opts.
func newClient(conn net.Conn, opts DialOptions) *Client {
	c := &Client{
		conn:         conn,
		cpu:          opts.CPU,
		tracer:       opts.Tracer,
		spanTag:      opts.SpanTag,
		txHist:       wire.NewFloatHistory(),
		pending:      make(map[uint64]*Call),
		reuseReplies: opts.ReuseReplies,
		reuseHits:    opts.ReuseHits,
		onPush:       opts.OnPush,
		done:         make(chan struct{}),
	}
	go c.readLoop()
	return c
}

// CodecVersion returns the codec every frame is encoded with. Its one caller
// is the benchmark module's probe (bench/layers.go).
func (c *Client) CodecVersion() int { return wire.CodecV2 }

// RemoteAddr returns the server's address.
func (c *Client) RemoteAddr() net.Addr { return c.conn.RemoteAddr() }

// LocalAddr returns the connection's local address. trace.AddrTag of its
// string form matches the tag the server records for this connection's
// requests, correlating client and server spans.
func (c *Client) LocalAddr() net.Addr { return c.conn.LocalAddr() }

// Err reports why the client is unusable: the read-loop death error,
// ErrClientClosed after Close, or nil while the connection is healthy.
func (c *Client) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return c.err
	}
	if c.closed {
		return ErrClientClosed
	}
	return nil
}

// LateResponses returns the number of responses that arrived after their
// call had already been abandoned (via context) and were dropped.
func (c *Client) LateResponses() uint64 { return c.late.Load() }

// readLoop dispatches responses to pending calls until the connection dies.
// It is the connection's single reader, so it owns the response-side float
// history (which must see every response, in order, to stay in lockstep
// with the server's writer) and the per-type reply-reuse cache.
func (c *Client) readLoop() {
	var (
		fr      = frameReader{r: c.conn} // its buffer is allocated by the first read
		dec     *wire.DecodeOpts         // built lazily on the first response
		pushDec *wire.DecodeOpts         // built lazily on the first push frame
	)
	for {
		h, body, err := fr.next()
		if err != nil {
			c.fail(fmt.Errorf("rpc: connection lost: %w", err))
			return
		}
		var m wire.Message
		switch h.kind {
		case kindResponse:
			if dec == nil {
				dec = &wire.DecodeOpts{Version: wire.CodecV2, Hist: wire.NewFloatHistory()}
				if c.reuseReplies {
					var cache msgTable
					dec.Reuse = func(t wire.MsgType) wire.Message {
						if !reusableReply(t) {
							return nil
						}
						m, hit := cache.cached(t)
						if hit && c.reuseHits != nil {
							c.reuseHits.Add(1)
						}
						return m
					}
				}
			}
			m, err = wire.DecodeWith(body, dec)
		case kindPush:
			// Server-initiated pushes are always stateless bodies — they
			// never advance the response history, so decoding them between
			// responses cannot desynchronize it. A decode failure is stream
			// corruption like any other and kills the connection.
			if pushDec == nil {
				// Pushes decode into one cached instance per type: OnPush
				// must not retain the message, so the next push may reuse it.
				var pushCache msgTable
				pushDec = &wire.DecodeOpts{Version: wire.CodecV2, Reuse: func(t wire.MsgType) wire.Message {
					m, _ := pushCache.cached(t)
					return m
				}}
			}
			m, err = wire.DecodeWith(body, pushDec)
			if err != nil {
				c.fail(fmt.Errorf("rpc: connection lost: %w", err))
				return
			}
			if c.onPush != nil {
				c.onPush(m)
			}
			continue
		default:
			// A retired or unknown kind: the peer is not this build.
			c.fail(fmt.Errorf("rpc: connection lost: frame kind %d", h.kind))
			return
		}
		if err != nil {
			// A frame we cannot decode desynchronizes the stream (and any
			// delta history); the connection is unusable.
			c.fail(fmt.Errorf("rpc: connection lost: %w", err))
			return
		}
		c.mu.Lock()
		call := c.pending[h.id]
		delete(c.pending, h.id)
		c.mu.Unlock()
		if call != nil {
			call.finish(m, nil)
		} else {
			// The call was abandoned via its context; its response is
			// dropped.
			c.late.Add(1)
		}
	}
}

// fail poisons the client: all pending and future calls return err.
func (c *Client) fail(err error) {
	c.mu.Lock()
	if c.err == nil {
		c.err = err
	}
	pending := c.pending
	c.pending = make(map[uint64]*Call)
	c.mu.Unlock()
	for _, call := range pending {
		call.finish(nil, err)
	}
}

// deregister removes call from the pending map, returning true if the caller
// now exclusively owns the handle. False means a completer (the read loop or
// fail) got there first and a completion is in flight.
func (c *Client) deregister(call *Call) bool {
	c.mu.Lock()
	cur, ok := c.pending[call.id]
	if ok && cur == call {
		delete(c.pending, call.id)
		c.mu.Unlock()
		return true
	}
	c.mu.Unlock()
	return false
}

// Go sends req asynchronously and returns its completion handle. The request
// is written to the connection before Go returns, so issuing many calls
// back-to-back pipelines them over the single connection; responses complete
// the handles in whatever order the server produces them. Errors — including
// a dead connection — surface through the handle, never as a panic.
func (c *Client) Go(ctx context.Context, req wire.Message) *Call {
	call := getCall()
	c.mu.Lock()
	if c.err != nil || c.closed {
		err := c.err
		if err == nil {
			err = ErrClientClosed
		}
		c.mu.Unlock()
		call.finish(nil, err)
		return call
	}
	c.nextID++
	call.id = c.nextID
	call.client = c
	c.pending[call.id] = call
	c.mu.Unlock()

	c.send(call, req, nil)
	_ = ctx // the deadline is enforced at Wait; issuing is non-blocking
	return call
}

// GoShared issues a request whose body is the broadcast frame f, already
// encoded (or encoded once, lazily, by the first caller): the per-call cost is
// a header plus one memcopy instead of a marshal. It is otherwise identical
// to Go. The call takes its own reference on f, released when the handle is
// recycled by Wait, so the shared body cannot be pooled out from under a
// slow connection.
func (c *Client) GoShared(ctx context.Context, f *SharedFrame) *Call {
	call := getCall()
	c.mu.Lock()
	if c.err != nil || c.closed {
		err := c.err
		if err == nil {
			err = ErrClientClosed
		}
		c.mu.Unlock()
		call.finish(nil, err)
		return call
	}
	c.nextID++
	call.id = c.nextID
	call.client = c
	f.retain()
	call.shared = f
	c.pending[call.id] = call
	c.mu.Unlock()

	c.send(call, nil, f.body())
	_ = ctx // the deadline is enforced at Wait; issuing is non-blocking
	return call
}

// Call sends req and waits for the matching response, honoring ctx. A
// remote handler failure is returned as *wire.ErrorReply.
func (c *Client) Call(ctx context.Context, req wire.Message) (wire.Message, error) {
	return c.Go(ctx, req).Wait(ctx)
}

// send encodes and writes call's request frame under the write lock. A nil
// body marshals m as a kind-7 frame against the client's request history:
// encoding under the lock advances the history in the order the frames reach
// the wire, which is the order the server's single reader decodes them in. A
// non-nil body is a SharedFrame's stateless pre-encoded bytes, sent as kind
// 4 — the "marshal" then degenerates to a header append plus memcopy, and is
// timed as such so the tracer's marshal share reflects the win.
//
// A failed write fails the client with every call pending on it, this one
// included: the frame may be partly on the wire, and a kind-7 body has
// advanced the history past what the server will ever decode, so the
// connection cannot carry another request.
//
// When the client has a CPU meter or a tracer the marshal and write are
// timed once and the measurements shared: the meter gets charged and the
// call carries them for its span, so tracing on top of an already-metered
// connection adds no extra clock reads on this path. A call off the tracer's
// sample grid takes no timestamps at all (unless metered) — it is merely
// counted at completion.
func (c *Client) send(call *Call, m wire.Message, body []byte) {
	traced := c.tracer != nil && c.tracer.Sampled(call.id)
	timed := c.cpu != nil || traced
	bp := getFrameBuf()
	c.wmu.Lock()
	var start time.Time
	if timed {
		start = time.Now()
	}
	if traced {
		call.issuedNs.Store(start.UnixNano())
	}
	if body != nil {
		*bp = appendSharedFrame((*bp)[:0], frameHeader{id: call.id, kind: kindRequest}, body)
	} else {
		*bp = appendFrame((*bp)[:0], frameHeader{id: call.id, kind: kindHistRequest}, m, c.txHist)
	}
	if timed {
		now := time.Now()
		el := now.Sub(start)
		start = now
		if c.cpu != nil {
			c.cpu.Add(el)
		}
		if traced {
			call.marshalNs.Store(int64(el))
		}
	}
	_, err := c.conn.Write(*bp)
	if timed {
		el := time.Since(start)
		if c.cpu != nil {
			c.cpu.Add(el)
		}
		if traced {
			call.writeNs.Store(int64(el))
		}
	}
	c.wmu.Unlock()
	putFrameBuf(bp)
	if err != nil {
		c.fail(fmt.Errorf("rpc: connection lost: %w", err))
	}
}

// Close tears down the connection; pending calls fail.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	close(c.done)
	err := c.conn.Close()
	c.fail(ErrClientClosed)
	return err
}

// Scatter invokes fn for indexes [0, n) using at most par concurrent
// workers, in roughly increasing index order, and stops issuing new indexes
// once ctx is cancelled (indexes already handed to a worker still run). It
// is the blocking fan-out primitive of the collect and enforce phases: par
// models the bounded handler pool of the paper's controller (gRPC server
// threads), which is what makes per-child work accumulate linearly with the
// number of children.
func Scatter(ctx context.Context, n, par int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if par <= 0 {
		par = 1
	}
	if par > n {
		par = n
	}
	if par == 1 {
		for i := 0; i < n; i++ {
			if ctx.Err() != nil {
				return
			}
			fn(i)
		}
		return
	}
	var wg sync.WaitGroup
	next := make(chan int)
	wg.Add(par)
	for w := 0; w < par; w++ {
		go func() {
			defer wg.Done()
			for i := range next {
				fn(i)
			}
		}()
	}
	done := ctx.Done()
	for i := 0; i < n; i++ {
		select {
		case next <- i:
		case <-done:
			i = n // stop issuing; drain workers below
		}
	}
	close(next)
	wg.Wait()
}

package rpc

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/dsrhaslab/sdscale/internal/telemetry"
	"github.com/dsrhaslab/sdscale/internal/trace"
	"github.com/dsrhaslab/sdscale/internal/transport"
	"github.com/dsrhaslab/sdscale/internal/wire"
)

// ErrClientClosed is returned by calls on a closed client.
var ErrClientClosed = errors.New("rpc: client closed")

// ErrDisconnected is wrapped by the error of every call on a client whose
// connection has died, those in flight when it died and those issued after,
// which fail at once. A dead client stays dead: its owner dials a new one.
var ErrDisconnected = errors.New("rpc: connection lost")

// Client is one end of a multiplexed RPC connection. It is safe for
// concurrent use: many calls may be in flight at once over the single
// underlying connection.
//
// Responses reach the client's replyReader through the connection's
// hand-off (transport.HandoffConn, as an untimed simnet connection offers),
// on the goroutine whose write delivered them, so the client runs no
// goroutine of its own; any other connection gets a pump.
type Client struct {
	conn net.Conn

	// tracer, if non-nil, receives one span per call (issue → completion,
	// with marshal/write sub-timings) tagged with spanTag. Spans are
	// recorded on the completion paths — the response's reader, abandonment,
	// or failure — never on the issue path, so pipelined fan-outs pay only
	// the timestamps.
	tracer  *trace.Tracer
	spanTag uint64

	// wmu serializes frame writes, and guards nextID, which calls are
	// registered under, the buffer frames are encoded into, and txHist:
	// the request history kind-7 bodies are encoded against, which
	// advances in write order.
	wmu    sync.Mutex
	nextID uint64
	wbuf   []byte
	txHist wire.FloatHistory

	// call is the client's one reusable handle. Go takes it, by a CAS on
	// held, unless an earlier call still holds it, and its Wait gives it
	// back; while it is in flight, slot holds its request ID. A connection
	// usually has one call in flight at a time, so it usually costs no
	// allocation, lock or map operation. Any other call gets a handle of
	// its own, registered in pending, made on first need, under mu: as when
	// an off-cycle fan-out shares the connection with a cycle's. complete,
	// deregister and fail take the slot by a CAS or Swap of the ID, so a
	// late response never takes the handle's next call. A call sits in
	// exactly one of the two until it is completed, deregistered or failed.
	call Call
	held atomic.Bool
	slot atomic.Uint64

	mu      sync.Mutex
	pending map[uint64]*Call
	closed  bool
	// err is why the client is unusable: the error its reader died of, or
	// ErrClientClosed after Close. It is set once, under mu, and read
	// without it by Err.
	err atomic.Pointer[error]

	late atomic.Uint64 // responses that arrived after their call was abandoned

	// reuseReplies enables the reader's per-type reply cache (see
	// DialOptions.ReuseReplies); reuseHits counts decodes into it, on this
	// connection's shard of DialOptions.ReuseHits. The reader is its only
	// writer and closes it when it dies.
	reuseReplies bool
	reuseHits    telemetry.Shard

	// onPush receives unsolicited server-initiated messages; see
	// DialOptions.OnPush.
	onPush func(m wire.Message)
}

// Call is the completion handle of an asynchronous request issued with
// Client.Go or Client.GoShared. Wait is its one consumer: it blocks for
// completion, returns the outcome and recycles the handle, after which the
// handle must not be used — it may already carry a different in-flight call.
// The handle holds nothing of the request once Go or GoShared has returned:
// the frame is on the wire by then, so a shared body need outlive only the
// GoShared calls that send it, not their Waits.
//
// Completion takes no channel operation. The completer stores the outcome
// and then stores the call's ID in done, so the call is complete when done
// holds its ID, and a reused handle needs no reset; Wait returns at once if
// it is complete, and otherwise parks on a pooled one-slot waiter that it
// publishes in waiter. The completer sets done and then loads waiter; Wait
// publishes its waiter and then re-checks done. Whichever of the two goes
// second sees the other, so a parked Wait is always woken. A completer that
// loads the waiter of a later use of the handle (or of the waiter) sends a
// stale wake, which costs its receiver one more check of done and nothing
// else.
type Call struct {
	reply wire.Message
	err   error // a transport error, ErrClientClosed, or a remote *wire.ErrorReply

	done   atomic.Uint64 // the ID of the handle's last completed call
	waiter atomic.Pointer[waiter]

	id     uint64
	client *Client

	// Span timings, populated by send when the client traces: issue time
	// (unix nanoseconds; doubles as the "this call is traced" marker),
	// frame-encode time, and connection-write time. Atomic because the
	// write timing lands after the frame is on the wire, so a fast
	// response's completion (by its reader) can race it; a span that
	// loses that race reports a zero write sub-timing rather than a torn
	// value. They stay zero on an untraced call.
	issuedNs  atomic.Int64
	marshalNs atomic.Int64
	writeNs   atomic.Int64
}

// waiter is what a Wait that found its call pending parks on. Its channel
// holds one wake; a wake that finds it full is dropped, because the one
// already buffered makes the receiver re-check done.
type waiter struct{ wake chan struct{} }

// waiterPool recycles waiters, so a Wait that parks allocates none. Each
// client recycles its own inline Call handle.
var waiterPool = sync.Pool{New: func() any { return &waiter{wake: make(chan struct{}, 1)} }}

// takeCall returns the client's inline handle if no call holds it, or a new
// one.
func (c *Client) takeCall() *Call {
	if c.held.CompareAndSwap(false, true) {
		return &c.call
	}
	return &Call{client: c}
}

// putCall gives the client's inline handle back; any other is dropped. The
// caller must be the handle's sole owner: completion consumed, or provably
// never to be delivered. It is the goroutine that called Wait, so it reads
// the waiter and span words its own Wait and Go wrote, and stores to them
// only when they were set: a waiter only if Wait parked, the span timings
// only if the call was traced. done keeps the completed call's ID, which the
// next call's differs from.
func putCall(call *Call) {
	c := call.client
	if call != &c.call {
		return
	}
	call.reply, call.err = nil, nil
	if call.waiter.Load() != nil {
		call.waiter.Store(nil)
	}
	if call.issuedNs.Load() != 0 {
		call.issuedNs.Store(0)
		call.marshalNs.Store(0)
		call.writeNs.Store(0)
	}
	c.held.Store(false)
}

// completed reports whether the call's outcome is in.
func (call *Call) completed() bool { return call.done.Load() == call.id }

// finish records the outcome, marks the call done and wakes its waiter, if
// one is parked. A remote *wire.ErrorReply lands in err, matching the
// synchronous Call contract. Only the goroutine that took the call out of
// the client's in-flight table may call it, and after done is set it touches
// nothing of the handle but the waiter word: the handle may already be
// recycled.
func (call *Call) finish(m wire.Message, err error) {
	if er, ok := m.(*wire.ErrorReply); ok {
		m, err = nil, er
	}
	if c := call.client; c.tracer != nil {
		if issued := call.issuedNs.Load(); issued != 0 {
			c.tracer.RecordClientCall(c.spanTag, call.id, issued,
				time.Now().UnixNano()-issued, call.marshalNs.Load(), call.writeNs.Load(),
				err != nil, false)
		} else {
			// Not on the sample grid: counted, never timed.
			c.tracer.CountClientCall(err != nil, false)
		}
	}
	call.reply, call.err = m, err
	call.done.Store(call.id)
	if w := call.waiter.Load(); w != nil {
		select {
		case w.wake <- struct{}{}:
		default:
		}
	}
}

// Wait blocks until the call completes or ctx is cancelled, returns the
// outcome, and recycles the handle. On cancellation the request is abandoned
// exactly as a context-cancelled synchronous Call: it is deregistered, and
// its response, which the server still sends, is dropped and counted when it
// arrives. Nothing is sent for an abandoned call. The handle must not be
// used after Wait returns.
func (call *Call) Wait(ctx context.Context) (wire.Message, error) {
	return call.WaitDeadline(ctx, nil)
}

// WaitDeadline is Wait that also gives up when expired delivers, abandoning
// the call with context.DeadlineExceeded as a context deadline would. A
// caller with one call outstanding at a time re-arms one timer per call in
// its place, where Wait would need a context per call. A nil expired never
// delivers.
func (call *Call) WaitDeadline(ctx context.Context, expired <-chan time.Time) (wire.Message, error) {
	if call.completed() {
		return call.release()
	}
	w := waiterPool.Get().(*waiter)
	call.waiter.Store(w)
	for !call.completed() {
		var err error
		select {
		case <-w.wake:
			continue // this call's wake, or a stale one: re-check done
		case <-ctx.Done():
			err = ctx.Err()
		case <-expired:
			err = context.DeadlineExceeded
		}
		if call.client.deregister(call) {
			// We took the call out of the in-flight table, so no completer
			// has it or ever will: the handle is ours.
			waiterPool.Put(w)
			return nil, call.abandon(err)
		}
		// Completion raced with the cancellation and won. Its completer
		// sets done and then wakes w.
		for !call.completed() {
			<-w.wake
		}
	}
	waiterPool.Put(w)
	return call.release()
}

// abandon closes the span of a call its waiter gave up on, recycles the
// handle and returns err. The caller must own the handle exclusively.
func (call *Call) abandon(err error) error {
	if c := call.client; c.tracer != nil {
		if issued := call.issuedNs.Load(); issued != 0 {
			// The span closes at abandonment: the caller stopped waiting,
			// so this is where the call's cost ends for it.
			c.tracer.RecordClientCall(c.spanTag, call.id, issued,
				time.Now().UnixNano()-issued, call.marshalNs.Load(), call.writeNs.Load(),
				true, true)
		} else {
			c.tracer.CountClientCall(true, true)
		}
	}
	putCall(call)
	return err
}

// release extracts the outcome of a completed call and recycles the handle.
func (call *Call) release() (wire.Message, error) {
	reply, err := call.reply, call.err
	putCall(call)
	return reply, err
}

// DialOptions configures Dial.
type DialOptions struct {
	// Meter, if non-nil, is charged with the connection's traffic.
	Meter *transport.Meter
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
	// ReuseHits, if non-nil, counts the replies decoded into a reused
	// message, on a shard of this connection's own.
	ReuseHits *telemetry.Counter
	// OnPush, if non-nil, receives unsolicited server-initiated messages
	// (kindPush frames) arriving on this connection. It runs on the
	// connection's reader — its pump, or the pushing goroutine on a
	// connection that hands its reads off — so it must not block and must
	// not retain the message past returning: the next push of the same
	// shape may reuse its memory. Nil clients drop push frames on the floor.
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

// newClient builds the client completely and only then starts its reads,
// since its reader reads every field set from opts.
func newClient(conn net.Conn, opts DialOptions) *Client {
	c := &Client{
		conn:         conn,
		tracer:       opts.Tracer,
		spanTag:      opts.SpanTag,
		reuseReplies: opts.ReuseReplies,
		onPush:       opts.OnPush,
	}
	c.call.client = c
	opts.ReuseHits.Attach(&c.reuseHits)
	startReads(conn, c.newReplyReader(), true)
	return c
}

// CodecVersion returns the codec every frame is encoded with. Its one caller
// is the benchmark module's probe (bench/layers.go).
func (c *Client) CodecVersion() int { return wire.CodecV2 }

// RemoteAddr returns the server's address.
func (c *Client) RemoteAddr() net.Addr { return c.conn.RemoteAddr() }

// Err reports why the client is unusable: the error its reader died of,
// ErrClientClosed after Close, or nil while the connection is healthy.
func (c *Client) Err() error {
	if err := c.err.Load(); err != nil {
		return *err
	}
	return nil
}

// setErr records err as why the client is unusable, unless a reason is
// already recorded.
func (c *Client) setErr(err error) { c.err.CompareAndSwap(nil, &err) }

// replyReader handles the frames a client receives. It is the connection's
// single reader, so it owns the response-side float history (which must see
// every response, in order, to stay in lockstep with the server's writer)
// and the per-type reply-reuse cache. One goroutine uses it at a time: the
// pump, or whichever goroutine the connection's hand-off runs on, in the
// order the connection delivers.
type replyReader struct {
	c       *Client
	dec     wire.DecodeOpts // Hist is rxHist
	rxHist  wire.FloatHistory
	pushDec *wire.DecodeOpts // built on the first push frame
	part    partial
	dead    bool // the reader has died: what follows is dropped
}

// arrive handles the frames that b completes, or with a non-nil end, the end
// of the stream. A malformed frame, or the end, fails the client; a frame
// error also closes the connection, which ends a pump's Read.
func (r *replyReader) arrive(b []byte, end error) {
	if r.dead {
		return
	}
	b = r.part.join(b)
	var h frameHeader
	var body []byte
	var err error
	for {
		if h, body, b, err = cut(b); body == nil {
			break
		}
		if err = r.frame(h, body); err != nil {
			break
		}
	}
	if err == nil {
		if err = r.part.keep(b, end); err == nil {
			return
		}
	}
	r.dead, r.part = true, nil
	r.c.reuseHits.Close()
	r.c.fail(disconnected(err))
	if end == nil {
		r.c.conn.Close() // a frame error: what follows is dropped
	}
}

// frame decodes one frame and completes its call, or passes a push to
// OnPush. An error is stream corruption: a frame that cannot be decoded
// desynchronizes the stream (and the response history), and a retired or
// unknown kind means the peer is not this build.
func (r *replyReader) frame(h frameHeader, body []byte) error {
	c := r.c
	switch h.kind {
	case kindResponse:
		m, err := wire.DecodeWith(body, &r.dec)
		if err != nil {
			return err
		}
		c.complete(h.id, m)
	case kindPush:
		// Server-initiated pushes are always stateless bodies — they never
		// advance the response history, so decoding them between responses
		// cannot desynchronize it.
		if r.pushDec == nil {
			r.pushDec = pushDecoder()
		}
		m, err := wire.DecodeWith(body, r.pushDec)
		if err != nil {
			return err
		}
		if c.onPush != nil {
			c.onPush(m)
		}
	default:
		return fmt.Errorf("frame kind %d", h.kind)
	}
	return nil
}

// complete hands response m to the call waiting for it, or drops it if the
// call was abandoned. It and pushDecoder stay out of line: inlined into
// frame, they grew a reader's stack into the next size, and a 1,000-stage
// TCP fleet's stacks from 11.2 to 14.8 MB.
//
//go:noinline
func (c *Client) complete(id uint64, m wire.Message) {
	call := &c.call
	if !c.slot.CompareAndSwap(id, 0) {
		c.mu.Lock()
		if call = c.pending[id]; call != nil {
			delete(c.pending, id)
		}
		c.mu.Unlock()
	}
	if call != nil {
		call.finish(m, nil)
	} else {
		// The call was abandoned via its context; its response is dropped.
		c.late.Add(1)
	}
}

// newReplyReader builds the client's reader, whose response decoder has the
// reply-reuse cache when the client reuses replies.
func (c *Client) newReplyReader() *replyReader {
	r := &replyReader{c: c}
	r.dec = wire.DecodeOpts{Version: wire.CodecV2, Hist: &r.rxHist}
	if c.reuseReplies {
		var cache msgTable
		r.dec.Reuse = func(t wire.MsgType) wire.Message {
			if !reusableReply(t) {
				return nil
			}
			m, hit := cache.cached(t)
			if hit {
				c.reuseHits.Add(1)
			}
			return m
		}
	}
	return r
}

// pushDecoder builds the push decoder. Pushes decode into one cached
// instance per type: OnPush must not retain the message, so the next push
// may reuse it.
//
//go:noinline
func pushDecoder() *wire.DecodeOpts {
	var cache msgTable
	return &wire.DecodeOpts{Version: wire.CodecV2, Reuse: func(t wire.MsgType) wire.Message {
		m, _ := cache.cached(t)
		return m
	}}
}

// disconnected is the error a client fails with when its connection dies of
// err. It stays out of line for the same reason as complete: building its
// arguments in arrive grew every pump's stack into the next size.
//
//go:noinline
func disconnected(err error) error { return fmt.Errorf("%w: %w", ErrDisconnected, err) }

// fail poisons the client: all in-flight and future calls return err. Once
// err is set no call is registered, so the table it empties stays empty.
func (c *Client) fail(err error) {
	c.mu.Lock()
	c.setErr(err)
	pending := c.pending
	c.pending = nil
	c.mu.Unlock()
	if c.slot.Swap(0) != 0 {
		c.call.finish(nil, err)
	}
	for _, call := range pending {
		call.finish(nil, err)
	}
}

// deregister takes call out of the in-flight table, returning true if the
// caller now exclusively owns the handle. False means a completer (the
// reader or fail) got there first and a completion is in flight.
func (c *Client) deregister(call *Call) bool {
	if call == &c.call {
		return c.slot.CompareAndSwap(call.id, 0)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.pending[call.id] == call {
		delete(c.pending, call.id)
		return true
	}
	return false
}

// register assigns call the next request ID and puts it in the in-flight
// table: the inline handle in the slot, any other in the map. On a dead
// client it completes the call with the client's error, untraced, and
// reports false. The caller holds wmu.
func (c *Client) register(call *Call) bool {
	c.nextID++
	call.id = c.nextID
	var err error
	if call == &c.call {
		c.slot.Store(call.id)
		// fail sets err before it empties the slot, so unless err is set
		// by now, fail will find the call there.
		if err = c.Err(); err != nil && !c.slot.CompareAndSwap(call.id, 0) {
			return false // fail took the call and completes it
		}
	} else {
		c.mu.Lock()
		if err = c.Err(); err == nil {
			if c.pending == nil {
				c.pending = make(map[uint64]*Call)
			}
			c.pending[call.id] = call
		}
		c.mu.Unlock()
	}
	if err != nil {
		call.err = err
		call.done.Store(call.id)
	}
	return err == nil
}

// Go sends req asynchronously and returns its completion handle. The request
// is written to the connection before Go returns, so issuing many calls
// back-to-back pipelines them over the single connection; responses complete
// the handles in whatever order the server produces them. Errors — including
// a dead connection — surface through the handle, never as a panic.
func (c *Client) Go(ctx context.Context, req wire.Message) *Call {
	_ = ctx // the deadline is enforced at Wait; issuing is non-blocking
	return c.send(c.takeCall(), req, nil)
}

// GoShared issues a request whose body is the broadcast frame f, already
// encoded (or encoded once, lazily, by the first caller): the per-call cost is
// a header plus one memcopy instead of a marshal. It is otherwise identical
// to Go. The body is copied into the client's own write buffer before
// GoShared returns, so the call keeps nothing of f: the producer's reference
// must outlive the GoShared calls, not their Waits.
func (c *Client) GoShared(ctx context.Context, f *SharedFrame) *Call {
	_ = ctx // the deadline is enforced at Wait; issuing is non-blocking
	return c.send(c.takeCall(), nil, f)
}

// Call sends req and waits for the matching response, honoring ctx. A
// remote handler failure is returned as *wire.ErrorReply.
func (c *Client) Call(ctx context.Context, req wire.Message) (wire.Message, error) {
	return c.Go(ctx, req).Wait(ctx)
}

// send registers call and encodes and writes its request frame, all under
// the write lock, and returns call; on a dead client it sends nothing. A nil
// f marshals m as a kind-7 frame against the client's request history:
// encoding under the lock advances the history in the order the frames reach
// the wire, which is the order the server's single reader decodes them in. A
// non-nil f is a SharedFrame, whose stateless pre-encoded body is sent as
// kind 4 — the "marshal" then degenerates to a header append plus memcopy,
// and is timed as such so the tracer's marshal share reflects the win.
//
// The frame is encoded into the client's own buffer, wbuf, which it keeps
// for the next call (see keepFrameBuf).
//
// A failed write fails the client with every call pending on it, this one
// included: the frame may be partly on the wire, and a kind-7 body has
// advanced the history past what the server will ever decode, so the
// connection cannot carry another request.
//
// A call on the tracer's sample grid times its marshal and write for its
// span; any other call reads no clock here. The CPU a fan-out spends
// issuing calls is charged by the fan-out, once around its issue loop.
func (c *Client) send(call *Call, m wire.Message, f *SharedFrame) *Call {
	c.wmu.Lock()
	if !c.register(call) {
		c.wmu.Unlock()
		return call
	}
	var body []byte
	if f != nil {
		body = f.body()
	}
	traced := c.tracer != nil && c.tracer.Sampled(call.id)
	var start time.Time
	if traced {
		start = time.Now()
		call.issuedNs.Store(start.UnixNano())
	}
	if body != nil {
		c.wbuf = appendSharedFrame(c.wbuf[:0], frameHeader{id: call.id, kind: kindRequest}, body)
	} else {
		c.wbuf = appendFrame(c.wbuf[:0], frameHeader{id: call.id, kind: kindHistRequest}, m, &c.txHist)
	}
	if traced {
		now := time.Now()
		call.marshalNs.Store(int64(now.Sub(start)))
		start = now
	}
	_, err := c.conn.Write(c.wbuf)
	if traced {
		call.writeNs.Store(int64(time.Since(start)))
	}
	c.wbuf = keepFrameBuf(c.wbuf)
	c.wmu.Unlock()
	if err != nil {
		c.fail(disconnected(err))
	}
	return call
}

// Close tears down the connection; pending calls fail.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	// Calls from now on fail with ErrClientClosed, not with the read error
	// that closing the connection is about to cause.
	c.setErr(ErrClientClosed)
	c.mu.Unlock()
	err := c.conn.Close()
	c.fail(ErrClientClosed)
	return err
}

// Scatter invokes fn for indexes [0, n) using at most par concurrent
// workers, in roughly increasing index order, and stops issuing new indexes
// once ctx is cancelled (indexes already handed to a worker still run). The
// controllers' probes, peer exchange and state sync fan out through it; the
// collect and enforce phases have their own issue loop.
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

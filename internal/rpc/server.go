package rpc

import (
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/dsrhaslab/sdscale/internal/monitor"
	"github.com/dsrhaslab/sdscale/internal/trace"
	"github.com/dsrhaslab/sdscale/internal/transport"
	"github.com/dsrhaslab/sdscale/internal/wire"
)

// Handler processes one request and returns the response message. Returning
// an error sends a wire.ErrorReply to the caller. Requests arriving on the
// same connection are handled in order; distinct connections are concurrent.
type Handler interface {
	Serve(peer *Peer, req wire.Message) (wire.Message, error)
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(peer *Peer, req wire.Message) (wire.Message, error)

// Serve implements Handler.
func (f HandlerFunc) Serve(peer *Peer, req wire.Message) (wire.Message, error) {
	return f(peer, req)
}

// Peer represents one client connection as seen by server handlers. It
// carries an attachment slot so a handler can associate state (e.g. the
// registered member identity) with the connection across requests.
type Peer struct {
	conn net.Conn

	// wmu serializes every write to conn: the connection's responses and
	// unsolicited Push frames (which may originate on any goroutine).
	// respond encodes outside the lock and holds it only for the write
	// itself.
	wmu sync.Mutex

	mu         sync.Mutex
	attachment any
}

// RemoteAddr returns the peer's address.
func (p *Peer) RemoteAddr() net.Addr { return p.conn.RemoteAddr() }

// SetAttachment associates v with the connection.
func (p *Peer) SetAttachment(v any) {
	p.mu.Lock()
	p.attachment = v
	p.mu.Unlock()
}

// Attachment returns the value set by SetAttachment, or nil.
func (p *Peer) Attachment() any {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.attachment
}

// Close severs the peer's connection. Used by servers to evict members.
func (p *Peer) Close() error { return p.conn.Close() }

// Push writes an unsolicited server-initiated frame carrying m to the peer.
// It is legal from the connection's first frame. The body is encoded
// statelessly — never against the connection's response history, so
// responses stay in lockstep regardless of interleaving. Safe for concurrent
// use with the connection's responses and other pushers.
func (p *Peer) Push(m wire.Message) error {
	bp := getFrameBuf()
	*bp = appendFrame((*bp)[:0], frameHeader{id: 0, kind: kindPush}, m, nil)
	p.wmu.Lock()
	_, err := p.conn.Write(*bp)
	p.wmu.Unlock()
	putFrameBuf(bp)
	return err
}

// ServerOptions configures a Server.
type ServerOptions struct {
	// Meter, if non-nil, is charged with all accepted connections' traffic.
	Meter *transport.Meter
	// CPU, if non-nil, is charged with request handling and response
	// marshal/write time (but not with time blocked waiting for requests).
	CPU *monitor.CPUMeter
	// Logf, if non-nil, receives connection-level error logs.
	Logf func(format string, args ...any)
	// OnDisconnect, if non-nil, runs when a peer's connection ends.
	OnDisconnect func(peer *Peer)
	// Tracer, if non-nil, receives one span per handled request: frame
	// arrival → response written, with queue-wait and handler sub-timings,
	// tagged with trace.AddrTag of the peer's remote address. A server
	// tracer never carries cycle context, so one tracer may be shared by
	// many servers (e.g. all stages of a simulated cluster).
	Tracer *trace.Tracer
	// ReuseRequests opts into the per-connection request freelist: requests
	// decode into recycled messages whose backing arrays are returned to the
	// connection once the response is written. Safe only when handlers never
	// retain a request past returning (Register, StateSync, and PeerExchange
	// are always excluded because controller handlers keep them).
	ReuseRequests bool
	// ReuseHits, if non-nil, is incremented once per request decoded into a
	// recycled message.
	ReuseHits *atomic.Uint64
	// RecycleReply, if non-nil, receives every handler response once the
	// server is finished with it: the response bytes are already encoded
	// and written (or suppressed by a cancel), so the receiver owns the
	// message exclusively and may reuse it for a later response. Called
	// on the goroutine that ran the handler. Handlers that return shared or
	// retained messages must not set this.
	RecycleReply func(wire.Message)
	// Inline declares that the handler never blocks: its Serve waits on no
	// I/O, channel, timer, or lock held across one of those. Each connection
	// is then served by a single goroutine that answers a request before it
	// reads the next frame, so a cancel frame always finds its request
	// already answered and has no effect (DESIGN.md §7). A handler that can
	// block must leave it unset.
	Inline bool
}

// Server accepts RPC connections and dispatches requests to a Handler.
type Server struct {
	l       net.Listener
	handler Handler
	opts    ServerOptions

	mu     sync.Mutex
	peers  map[*Peer]struct{}
	closed bool

	canceled atomic.Uint64 // requests withdrawn by cancel frames

	acceptWG sync.WaitGroup // the accept loop
	connWG   sync.WaitGroup // per-connection handler goroutines
}

// Serve starts a server listening on addr over network. It returns once the
// listener is active; request handling proceeds in background goroutines.
func Serve(network transport.Network, addr string, h Handler, opts ServerOptions) (*Server, error) {
	l, err := network.Listen(addr)
	if err != nil {
		return nil, err
	}
	s := &Server{l: l, handler: h, opts: opts, peers: make(map[*Peer]struct{})}
	s.acceptWG.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the server's listen address.
func (s *Server) Addr() net.Addr { return s.l.Addr() }

// NumPeers returns the number of currently connected peers.
func (s *Server) NumPeers() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.peers)
}

// CanceledRequests returns the number of requests withdrawn by client
// cancel frames: dropped before dispatch, or executed with the response
// suppressed.
func (s *Server) CanceledRequests() uint64 { return s.canceled.Load() }

// ForEachPeer calls fn for every currently connected peer. The peer set is
// snapshotted under the server lock, so fn may itself block (e.g. on a Push
// write) without holding up accepts or disconnects.
func (s *Server) ForEachPeer(fn func(*Peer)) {
	s.mu.Lock()
	peers := make([]*Peer, 0, len(s.peers))
	for p := range s.peers {
		peers = append(peers, p)
	}
	s.mu.Unlock()
	for _, p := range peers {
		fn(p)
	}
}

func (s *Server) logf(format string, args ...any) {
	if s.opts.Logf != nil {
		s.opts.Logf(format, args...)
	}
}

func (s *Server) acceptLoop() {
	defer s.acceptWG.Done()
	for {
		conn, err := s.l.Accept()
		if err != nil {
			if !errors.Is(err, net.ErrClosed) {
				s.logf("rpc: accept: %v", err)
			}
			return
		}
		peer := &Peer{conn: transport.WithMeter(conn, s.opts.Meter)}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.peers[peer] = struct{}{}
		s.mu.Unlock()
		s.connWG.Add(1)
		go s.serveConn(peer)
	}
}

// queuedReq is one request awaiting dispatch on a connection.
type queuedReq struct {
	id  uint64
	req wire.Message
	// arrivedNs is the frame's read-completion time (unix nanoseconds),
	// stamped by the reader goroutine only when the server traces and the
	// frame ID is on the tracer's sample grid; queue wait is pop time minus
	// arrival. Zero means "count this request, don't time it".
	arrivedNs int64
}

// reqFreelist recycles decoded request messages within one connection: the
// reader goroutine decodes into a recycled instance (reusing its backing
// arrays), and the handler loop returns the instance after the response is
// written. One slot per type suffices because requests on a connection are
// dispatched in order — at most one instance of a type is ever between
// decode and response. The mutex covers the reader/handler handoff.
type reqFreelist struct {
	mu     sync.Mutex
	byType msgTable
	hits   *atomic.Uint64
}

// take removes and returns the recycled instance for t, or nil when none is
// available (the decoder then allocates fresh).
func (fl *reqFreelist) take(t wire.MsgType) wire.Message {
	if !reusableRequest(t) {
		return nil
	}
	fl.mu.Lock()
	slot := fl.byType.slot(t)
	m := *slot
	*slot = nil
	fl.mu.Unlock()
	if m != nil && fl.hits != nil {
		fl.hits.Add(1)
	}
	return m
}

// put offers a handled request back to its type's slot. A request the
// handler may retain (non-whitelisted type) is never recycled.
func (fl *reqFreelist) put(m wire.Message) {
	t := m.Type()
	if !reusableRequest(t) {
		return
	}
	fl.mu.Lock()
	if slot := fl.byType.slot(t); *slot == nil {
		*slot = m
	}
	fl.mu.Unlock()
}

// reqQueue is a per-connection ordered request queue. A reader goroutine
// pushes requests and applies cancel frames; the handler loop pops them in
// arrival order, so per-connection ordering is preserved while cancels for
// still-queued requests are observed before dispatch.
type reqQueue struct {
	mu   sync.Mutex
	cond sync.Cond
	// items is consumed by advancing head rather than re-slicing: once the
	// queue drains, head and length reset together, so steady-state pushes
	// append into the same backing array instead of reallocating per
	// request (the re-slice would strand the array's free space behind the
	// slice pointer).
	items  []queuedReq
	head   int
	closed bool

	// The request currently being dispatched, so a cancel arriving
	// mid-handler can suppress its response.
	current         uint64
	currentActive   bool
	currentCanceled bool
}

func newReqQueue() *reqQueue {
	q := &reqQueue{}
	q.cond.L = &q.mu
	return q
}

func (q *reqQueue) push(item queuedReq) {
	q.mu.Lock()
	if !q.closed {
		q.items = append(q.items, item)
	}
	q.mu.Unlock()
	q.cond.Signal()
}

// cancel withdraws id: a still-queued request is removed, the in-flight
// request has its response suppressed. Reports whether it took effect.
func (q *reqQueue) cancel(id uint64) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	for i := q.head; i < len(q.items); i++ {
		if q.items[i].id == id {
			q.items = append(q.items[:i], q.items[i+1:]...)
			return true
		}
	}
	if q.currentActive && q.current == id && !q.currentCanceled {
		q.currentCanceled = true
		return true
	}
	return false
}

// pop blocks for the next request, marking it current. ok is false once the
// queue is closed.
func (q *reqQueue) pop() (item queuedReq, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.head == len(q.items) && !q.closed {
		q.cond.Wait()
	}
	if q.closed {
		return queuedReq{}, false
	}
	item = q.items[q.head]
	q.items[q.head] = queuedReq{} // drop the request reference
	q.head++
	if q.head == len(q.items) {
		q.items, q.head = q.items[:0], 0
	}
	q.current, q.currentActive, q.currentCanceled = item.id, true, false
	return item, true
}

// finish clears the current marker and reports whether the response must be
// suppressed because a cancel arrived during dispatch.
func (q *reqQueue) finish() (suppress bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	suppress = q.currentCanceled
	q.currentActive, q.currentCanceled = false, false
	return suppress
}

// close wakes the handler loop and discards queued requests: the connection
// is gone, so their responses could never be delivered.
func (q *reqQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.items, q.head = nil, 0
	q.mu.Unlock()
	q.cond.Broadcast()
}

// srvConn is one connection's serving state. Everything below q belongs to
// whichever goroutine calls respond — the handler loop on a queued
// connection, the reader itself on an inline one — and makes that goroutine
// the connection's only response writer.
type srvConn struct {
	s    *Server
	peer *Peer
	fl   *reqFreelist // nil unless ServerOptions.ReuseRequests
	q    *reqQueue    // nil on an inline connection

	peerTag uint64
	wbp     *[]byte
	// The response history (shared by all response types on this
	// connection) is kept in lockstep with the client's read loop because
	// respond has a single caller.
	txHist *wire.FloatHistory
}

// serveConn handles one connection's requests in order until it dies. On a
// queued connection a separate reader goroutine keeps consuming frames while
// a handler runs, so cancel frames for queued requests take effect before
// dispatch; on an inline connection (ServerOptions.Inline) the reader answers
// each request itself before it reads the next frame.
func (s *Server) serveConn(peer *Peer) {
	defer s.connWG.Done()
	defer func() {
		peer.conn.Close()
		s.mu.Lock()
		delete(s.peers, peer)
		s.mu.Unlock()
		if s.opts.OnDisconnect != nil {
			s.opts.OnDisconnect(peer)
		}
	}()

	c := &srvConn{s: s, peer: peer, wbp: getFrameBuf(), txHist: wire.NewFloatHistory()}
	defer putFrameBuf(c.wbp)
	if s.opts.ReuseRequests {
		c.fl = &reqFreelist{hits: s.opts.ReuseHits}
	}
	if s.opts.Tracer != nil {
		c.peerTag = trace.AddrTag(peer.conn.RemoteAddr().String())
	}
	if s.opts.Inline {
		c.read()
		return
	}

	c.q = newReqQueue()
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		defer c.q.close()
		c.read()
	}()
	for {
		item, ok := c.q.pop()
		if !ok || c.respond(item) != nil {
			break
		}
	}
	peer.conn.Close() // unblock the reader if the write side failed first
	<-readerDone
}

// read consumes the connection's frames until it dies, handing each decoded
// request to deliver and applying cancel frames to the queue.
func (c *srvConn) read() {
	// The decode buffer is pooled across connections; decoded messages
	// never alias it (see readFrame), so returning it is safe even while
	// requests it carried are still queued or executing.
	rbp := getFrameBuf()
	defer putFrameBuf(rbp)
	// Requests are encoded statelessly (concurrent client senders cannot
	// share a float history), so no Hist.
	dec := &wire.DecodeOpts{Version: wire.CodecV2}
	if c.fl != nil {
		dec.Reuse = c.fl.take
	}
	for {
		var (
			h    frameHeader
			body []byte
			err  error
		)
		h, body, *rbp, err = readFrame(c.peer.conn, *rbp)
		if err != nil {
			return // EOF or broken conn
		}
		switch h.kind {
		case kindRequest:
			req, err := wire.DecodeWith(body, dec)
			if err != nil {
				return // protocol corruption; drop the connection
			}
			item := queuedReq{id: h.id, req: req}
			if c.s.opts.Tracer.Sampled(h.id) {
				item.arrivedNs = time.Now().UnixNano()
			}
			if c.deliver(item) != nil {
				return // the response write failed
			}
		case kindCancel:
			// An inline connection has answered every request it has read, so
			// a cancel frame there always names a completed request.
			if c.q != nil && c.q.cancel(h.id) {
				c.s.canceled.Add(1)
			}
		default:
			return // a retired or unknown kind: the peer is not this build
		}
	}
}

// deliver is the one fork between the serving disciplines: a queued
// connection's reader hands the item to the handler loop, an inline
// connection's reader answers it on the spot.
func (c *srvConn) deliver(item queuedReq) error {
	if c.q == nil {
		return c.respond(item)
	}
	c.q.push(item)
	return nil
}

// respond dispatches a request and writes its response. It returns the
// connection's write error, if any.
func (c *srvConn) respond(item queuedReq) error {
	s, peer, wbp := c.s, c.peer, c.wbp
	traced := item.arrivedNs != 0
	popNs := item.arrivedNs // no queue, no wait
	if traced && c.q != nil {
		popNs = time.Now().UnixNano()
	}
	var untrack func()
	if s.opts.CPU != nil {
		untrack = s.opts.CPU.Track()
	}
	resp := s.dispatch(peer, item.req)
	var handlerDoneNs int64
	if traced {
		handlerDoneNs = time.Now().UnixNano()
	}
	var err error
	if c.q == nil || !c.q.finish() {
		// A cancel-suppressed response is never encoded, so it leaves the
		// response history untouched — the client, which decodes every
		// arriving frame, stays in lockstep.
		*wbp = appendFrame((*wbp)[:0], frameHeader{id: item.id, kind: kindResponse}, resp, c.txHist)
		peer.wmu.Lock()
		_, err = peer.conn.Write(*wbp)
		peer.wmu.Unlock()
	}
	if c.fl != nil && item.req != nil {
		c.fl.put(item.req)
	}
	if s.opts.RecycleReply != nil && resp != nil {
		s.opts.RecycleReply(resp)
	}
	if untrack != nil {
		untrack()
	}
	if traced {
		endNs := time.Now().UnixNano()
		s.opts.Tracer.RecordServerCall(c.peerTag, item.id, item.arrivedNs,
			endNs-item.arrivedNs, popNs-item.arrivedNs, handlerDoneNs-popNs,
			endNs-handlerDoneNs)
	} else if s.opts.Tracer != nil {
		s.opts.Tracer.CountServerCall()
	}
	return err
}

// dispatch runs the handler, converting errors and panics to ErrorReply so
// one bad request never kills the connection, let alone the controller.
func (s *Server) dispatch(peer *Peer, req wire.Message) (resp wire.Message) {
	defer func() {
		if r := recover(); r != nil {
			s.logf("rpc: handler panic: %v", r)
			resp = &wire.ErrorReply{Code: wire.CodeInternal, Text: "handler panic"}
		}
	}()
	resp, err := s.handler.Serve(peer, req)
	if err != nil {
		var er *wire.ErrorReply
		if errors.As(err, &er) {
			return er
		}
		return &wire.ErrorReply{Code: wire.CodeInternal, Text: err.Error()}
	}
	if resp == nil {
		return &wire.ErrorReply{Code: wire.CodeInternal, Text: "handler returned no response"}
	}
	return resp
}

// Close stops accepting and severs all connections. Like net/http's
// Close, it does not wait for in-flight handlers — their response writes
// fail once the connection is gone. Use Wait to block for full drain.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.acceptWG.Wait()
		return nil
	}
	s.closed = true
	peers := make([]*Peer, 0, len(s.peers))
	for p := range s.peers {
		peers = append(peers, p)
	}
	s.mu.Unlock()

	err := s.l.Close()
	for _, p := range peers {
		p.conn.Close()
	}
	s.acceptWG.Wait()
	return err
}

// Wait blocks until every per-connection handler goroutine has exited.
// Call it after Close when full quiescence matters (e.g. before asserting
// on shared state in tests).
func (s *Server) Wait() {
	s.acceptWG.Wait()
	s.connWG.Wait()
}

package rpc

import (
	"errors"
	"net"
	"slices"
	"sync"
	"time"

	"github.com/dsrhaslab/sdscale/internal/monitor"
	"github.com/dsrhaslab/sdscale/internal/telemetry"
	"github.com/dsrhaslab/sdscale/internal/trace"
	"github.com/dsrhaslab/sdscale/internal/transport"
	"github.com/dsrhaslab/sdscale/internal/wire"
)

// Handler processes one request and returns the response message. Returning
// an error sends a wire.ErrorReply to the caller. Requests arriving on the
// same connection are handled in order, each on the goroutine that read it,
// so a handler that blocks holds up only its own connection; distinct
// connections are concurrent.
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
	// arrival → response written, with handler and response-write
	// sub-timings, tagged with trace.AddrTag of the peer's remote address.
	// A server tracer never carries cycle context, so one tracer may be
	// shared by many servers (e.g. all stages of a simulated cluster).
	Tracer *trace.Tracer
	// ReuseRequests opts into the per-connection request freelist: requests
	// decode into recycled messages whose backing arrays are returned to the
	// connection once the response is written. Safe only when handlers never
	// retain a request past returning (Register, StateSync, and PeerExchange
	// are always excluded because controller handlers keep them).
	ReuseRequests bool
	// ReuseHits, if non-nil, counts the requests decoded into a recycled
	// message, each connection on a shard of its own.
	ReuseHits *telemetry.Counter
	// RecycleReply, if non-nil, receives every handler response once the
	// server is finished with it: the response bytes are already encoded
	// and written, so the receiver owns the message exclusively and may
	// reuse it for a later response. Called on the goroutine that ran the
	// handler. Handlers that return shared or retained messages must not
	// set this.
	RecycleReply func(wire.Message)
}

// Server accepts RPC connections and dispatches requests to a Handler.
type Server struct {
	l       net.Listener
	handler Handler
	opts    ServerOptions

	mu sync.Mutex
	// peers is the connected set, copied on every accept and disconnect
	// and never changed in place: ForEachPeer iterates the slice it read
	// under mu without copying it.
	peers  []*Peer
	closed bool

	acceptWG sync.WaitGroup // the accept loop, on a listener without handoff
	connWG   sync.WaitGroup // one goroutine per connection
}

// Serve starts a server listening on addr over network. It returns once the
// listener is active; request handling proceeds in background goroutines,
// one per connection. A listener that hands its connections off
// (transport.HandoffListener, as simnet's do) gives each to the server on
// its dialer's goroutine; any other gets an accept loop.
func Serve(network transport.Network, addr string, h Handler, opts ServerOptions) (*Server, error) {
	l, err := network.Listen(addr)
	if err != nil {
		return nil, err
	}
	s := &Server{l: l, handler: h, opts: opts}
	if hl, ok := l.(transport.HandoffListener); ok {
		hl.Handoff(s.accept)
		return s, nil
	}
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

// ForEachPeer calls fn for every currently connected peer. It iterates the
// peer set as it stood on entry, outside the server lock, so fn may itself
// block (e.g. on a Push write) without holding up accepts or disconnects;
// it allocates nothing.
func (s *Server) ForEachPeer(fn func(*Peer)) {
	s.mu.Lock()
	peers := s.peers
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
		s.accept(conn)
	}
}

// accept starts the goroutine that serves a new connection, or closes the
// connection if the server is closed. The goroutine is counted under the
// lock that Close takes to mark the server closed, so Wait never misses one.
func (s *Server) accept(conn net.Conn) {
	peer := &Peer{conn: transport.WithMeter(conn, s.opts.Meter)}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		conn.Close()
		return
	}
	s.peers = append(s.peers[:len(s.peers):len(s.peers)], peer) // a copy: see peers
	s.connWG.Add(1)
	s.mu.Unlock()
	go s.serveConn(peer)
}

// reqFreelist recycles decoded request messages within one connection: a
// request decodes into a recycled instance (reusing its backing arrays), and
// the instance goes back once its response is written. One slot per type
// suffices because a connection answers one request at a time, and take and
// put both run on the connection's one goroutine, so the list needs no lock.
type reqFreelist struct {
	byType msgTable
	hits   telemetry.Shard // on ServerOptions.ReuseHits; closed with the connection
}

// take removes and returns the recycled instance for t, or nil when none is
// available (the decoder then allocates fresh).
func (fl *reqFreelist) take(t wire.MsgType) wire.Message {
	if !reusableRequest(t) {
		return nil
	}
	slot := fl.byType.slot(t)
	m := *slot
	*slot = nil
	if m != nil {
		fl.hits.Add(1)
	}
	return m
}

// put returns a handled request to its type's slot, which take emptied. A
// request the handler may retain (non-whitelisted type) is never recycled.
func (fl *reqFreelist) put(m wire.Message) {
	if t := m.Type(); reusableRequest(t) {
		*fl.byType.slot(t) = m
	}
}

// srvConn is one connection's serving state. It belongs to the connection's
// one goroutine, which reads a request, runs its handler and writes its
// response before it reads the next frame.
type srvConn struct {
	s    *Server
	peer *Peer
	fl   *reqFreelist // nil unless ServerOptions.ReuseRequests

	peerTag uint64
	// The response history (shared by all response types on this
	// connection) is kept in lockstep with the client's read loop because
	// this goroutine is the connection's only response writer.
	txHist *wire.FloatHistory
}

// serveConn answers one connection's requests in order until it dies.
func (s *Server) serveConn(peer *Peer) {
	defer s.connWG.Done()
	defer func() {
		peer.conn.Close()
		s.mu.Lock()
		if i := slices.Index(s.peers, peer); i >= 0 {
			s.peers = slices.Concat(s.peers[:i], s.peers[i+1:])
		}
		s.mu.Unlock()
		if s.opts.OnDisconnect != nil {
			s.opts.OnDisconnect(peer)
		}
	}()

	c := &srvConn{s: s, peer: peer, txHist: wire.NewFloatHistory()}
	if s.opts.ReuseRequests {
		c.fl = &reqFreelist{}
		s.opts.ReuseHits.Attach(&c.fl.hits)
		defer c.fl.hits.Close()
	}
	if s.opts.Tracer != nil {
		c.peerTag = trace.AddrTag(peer.conn.RemoteAddr().String())
	}
	c.read()
}

// read consumes the connection's frames and answers each request before it
// reads the next, until the connection dies, a frame is not a well-formed
// request, or a response write fails.
func (c *srvConn) read() {
	// The read buffer is the connection's own, allocated by the first read
	// at the client's size: a stage's one connection lives as long as the
	// stage, so a buffer borrowed from the pool would never go back.
	fr := frameReader{r: c.peer.conn}
	// Kind-4 requests are stateless broadcast bodies. Kind-7 requests decode
	// against the connection's request history, which this goroutine, the
	// connection's only reader, advances in the order the client wrote them.
	dec := &wire.DecodeOpts{Version: wire.CodecV2}
	if c.fl != nil {
		dec.Reuse = c.fl.take
	}
	histDec := &wire.DecodeOpts{Version: wire.CodecV2, Hist: wire.NewFloatHistory(), Reuse: dec.Reuse}
	for {
		h, body, err := fr.next()
		if err != nil {
			return // EOF or broken conn
		}
		d := dec
		switch h.kind {
		case kindRequest:
		case kindHistRequest:
			d = histDec
		default:
			return // a retired or unknown kind: the peer is not this build
		}
		req, err := wire.DecodeWith(body, d)
		if err != nil {
			return // protocol corruption; drop the connection
		}
		var arrivedNs int64
		if c.s.opts.Tracer.Sampled(h.id) {
			arrivedNs = time.Now().UnixNano()
		}
		if c.respond(h.id, req, arrivedNs) != nil {
			return // the response write failed
		}
	}
}

// respond runs the handler for request id and writes its response. arrivedNs
// is the frame's read-completion time (unix nanoseconds), stamped only when
// the server traces and id is on the tracer's sample grid; zero means "count
// this request, don't time it". It returns the connection's write error, if
// any.
func (c *srvConn) respond(id uint64, req wire.Message, arrivedNs int64) error {
	s, peer := c.s, c.peer
	var untrack func()
	if s.opts.CPU != nil {
		untrack = s.opts.CPU.Track()
	}
	resp := s.dispatch(peer, req)
	var handlerDoneNs int64
	if arrivedNs != 0 {
		handlerDoneNs = time.Now().UnixNano()
	}
	// The buffer goes back to the pool after the write, so a connection at
	// rest holds none.
	bp := getFrameBuf()
	*bp = appendFrame((*bp)[:0], frameHeader{id: id, kind: kindResponse}, resp, c.txHist)
	peer.wmu.Lock()
	_, err := peer.conn.Write(*bp)
	peer.wmu.Unlock()
	putFrameBuf(bp)
	if c.fl != nil {
		c.fl.put(req)
	}
	if s.opts.RecycleReply != nil {
		s.opts.RecycleReply(resp)
	}
	if untrack != nil {
		untrack()
	}
	if arrivedNs != 0 {
		endNs := time.Now().UnixNano()
		s.opts.Tracer.RecordServerCall(c.peerTag, id, arrivedNs, endNs-arrivedNs,
			handlerDoneNs-arrivedNs, endNs-handlerDoneNs)
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
	peers := s.peers
	s.mu.Unlock()

	err := s.l.Close()
	for _, p := range peers {
		p.conn.Close()
	}
	s.acceptWG.Wait()
	return err
}

// Wait blocks until every per-connection goroutine has exited.
// Call it after Close when full quiescence matters (e.g. before asserting
// on shared state in tests).
func (s *Server) Wait() {
	s.acceptWG.Wait()
	s.connWG.Wait()
}

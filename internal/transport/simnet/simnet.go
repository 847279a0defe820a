// Package simnet implements an in-process simulated network whose
// connections satisfy net.Conn.
//
// The paper's methodology (§III-D) scales to 10,000 "compute nodes" by
// running 50 virtual data-plane stages per physical Frontera node; simnet
// takes the same idea to its conclusion and hosts the whole cluster in one
// process. Each logical host has:
//
//   - a configurable concurrent-connection limit (default 2,500, the limit
//     the paper measured on Frontera nodes, §IV-A), so the flat design's
//     scalability cliff is reproduced by construction;
//   - a latency model: one-way propagation delay, optional jitter, and
//     per-message and per-byte processing costs at each endpoint host.
//
// Connections are goroutine-free: a connection is two mutex-guarded byte
// buffers, and latency is applied by stamping every write with an arrival
// time that one network-wide scheduler goroutine honours, so a 10,000-stage
// cluster costs no scheduler overhead beyond the stages themselves. A network
// with no latency model configured never reads the clock on a write.
// Listeners can be goroutine-free too: one that hands its connections to a
// callback (transport.HandoffListener) needs no goroutine parked in Accept.
// So can readers: a connection of an untimed network hands its arriving
// bytes to a callback (transport.HandoffConn) on the writer's goroutine, so
// its reader needs no goroutine parked in Read.
package simnet

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/dsrhaslab/sdscale/internal/transport"
)

// DefaultMaxConns mirrors the per-node connection limit the paper observed
// on Frontera (§IV-A). It applies to connections a host initiates: the pool a
// controller maintains toward its children.
const DefaultMaxConns = 2500

// maxBacklog is how many dialed connections a listener holds for Accept
// before Dial fails with ErrBacklogFull.
const maxBacklog = 4096

// Errors returned by simnet operations.
var (
	// ErrHostPartitioned is returned when dialing from or to a
	// partitioned host.
	ErrHostPartitioned = errors.New("simnet: host partitioned")
	// ErrConnRefused is returned when the target address has no listener.
	ErrConnRefused = errors.New("simnet: connection refused")
	// ErrBacklogFull is returned when a listener's accept queue is full.
	ErrBacklogFull = errors.New("simnet: listener backlog full")
)

// Config parameterizes a simulated network.
type Config struct {
	// PropDelay is the one-way propagation delay applied to every chunk.
	// Zero (the default) disables it: in-process scheduling already plays
	// the role of a fast interconnect, and artificial sub-millisecond
	// delays mostly measure timer granularity. Negative also disables.
	PropDelay time.Duration
	// Jitter adds a uniformly random extra delay in [0, Jitter) per chunk.
	Jitter time.Duration
	// ProcTime is the fixed per-message processing cost charged to each
	// endpoint host's processor (a virtual-time queue, so messages at one
	// host serialize while distinct hosts proceed in parallel). This is
	// the knob that models per-node controller capacity: it is what makes
	// a controller's latency grow with its child count even when the
	// simulation runs on fewer physical cores than simulated hosts.
	// Zero disables processing costs.
	ProcTime time.Duration
	// ProcPerByte is the additional processing cost per payload byte,
	// charged alongside ProcTime. It makes large rule batches expensive
	// for the host that sends or receives them, as in the paper's
	// Table III observations. Zero disables it.
	ProcPerByte time.Duration
	// MaxConnsPerHost limits concurrent connections per host. Zero selects
	// DefaultMaxConns; negative disables the limit.
	MaxConnsPerHost int
	// Seed seeds the jitter generator; zero selects a fixed seed so runs
	// are reproducible by default.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.PropDelay < 0 {
		c.PropDelay = 0
	}
	if c.MaxConnsPerHost == 0 {
		c.MaxConnsPerHost = DefaultMaxConns
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Net is a simulated network: a namespace of hosts connected by a uniform
// latency model.
type Net struct {
	cfg Config
	// timed is whether any part of the latency model is configured. Without
	// one every write is readable at once, so writes skip the clock, the
	// processors and the scheduler altogether.
	timed bool

	sched *scheduler

	mu    sync.Mutex
	hosts map[string]*Host
	rng   *rand.Rand
}

// New creates a simulated network.
func New(cfg Config) *Net {
	cfg = cfg.withDefaults()
	return &Net{
		cfg:   cfg,
		timed: cfg.PropDelay > 0 || cfg.Jitter > 0 || cfg.ProcTime > 0 || cfg.ProcPerByte > 0,
		sched: newScheduler(),
		hosts: make(map[string]*Host),
		rng:   rand.New(rand.NewSource(cfg.Seed)),
	}
}

// jitter returns a random extra delay in [0, cfg.Jitter).
func (n *Net) jitter() time.Duration {
	if n.cfg.Jitter <= 0 {
		return 0
	}
	n.mu.Lock()
	d := time.Duration(n.rng.Int63n(int64(n.cfg.Jitter)))
	n.mu.Unlock()
	return d
}

// Host returns the named host, creating it on first use.
func (n *Net) Host(name string) *Host {
	n.mu.Lock()
	defer n.mu.Unlock()
	h, ok := n.hosts[name]
	if !ok {
		h = &Host{
			net:       n,
			name:      name,
			maxConns:  n.cfg.MaxConnsPerHost,
			listeners: make(map[int]*listener),
			conns:     make(map[*conn]struct{}),
			nextPort:  40000,
		}
		n.hosts[name] = h
	}
	return h
}

// lookup returns the named host or nil.
func (n *Net) lookup(name string) *Host {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.hosts[name]
}

// Host is one endpoint of the simulated network. It implements
// transport.Network: listening binds ports on this host, and dialing
// originates from it (so connection limits apply to the correct endpoint).
type Host struct {
	net  *Net
	name string

	mu          sync.Mutex
	listeners   map[int]*listener
	conns       map[*conn]struct{}
	outConns    int // connections this host initiated (the limited pool)
	nextPort    int
	maxConns    int
	partitioned bool

	proc processor
}

// processor is a host's simulated message-processing capacity: a
// virtual-time queue with deterministic service time per message. All
// messages sent or received by the host serialize through it, while
// distinct hosts proceed independently — reproducing per-node CPU limits on
// a machine with fewer cores than simulated hosts.
type processor struct {
	mu       sync.Mutex
	nextFree time.Time
}

// schedule reserves processing for a message of n bytes that becomes
// eligible at the given time, returning its completion time.
func (p *processor) schedule(at time.Time, n int, cfg *Config) time.Time {
	svc := cfg.ProcTime + time.Duration(n)*cfg.ProcPerByte
	if svc <= 0 {
		return at
	}
	p.mu.Lock()
	start := at
	if p.nextFree.After(start) {
		start = p.nextFree
	}
	done := start.Add(svc)
	p.nextFree = done
	p.mu.Unlock()
	return done
}

var (
	_ transport.Network         = (*Host)(nil)
	_ transport.HandoffListener = (*listener)(nil)
)

// ConnCount returns the number of currently established connections
// (initiated plus accepted).
func (h *Host) ConnCount() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.conns)
}

// SetPartitioned isolates (or heals) the host. Partitioning fails future
// dials from and to the host and severs its established connections,
// modeling a crashed or unreachable controller for dependability tests.
func (h *Host) SetPartitioned(p bool) {
	h.mu.Lock()
	h.partitioned = p
	var victims []*conn
	if p {
		for c := range h.conns {
			victims = append(victims, c)
		}
	}
	h.mu.Unlock()
	for _, c := range victims {
		c.Close()
	}
}

// KillConns severs every established connection at the host without
// changing its partition state: future dials succeed immediately. This
// models a transient fault — a controller restart or a switch reset — as
// opposed to SetPartitioned's sustained isolation.
func (h *Host) KillConns() {
	h.mu.Lock()
	victims := make([]*conn, 0, len(h.conns))
	for c := range h.conns {
		victims = append(victims, c)
	}
	h.mu.Unlock()
	for _, c := range victims {
		c.Close()
	}
}

// resolve parses "host:port" relative to h: an empty host means h itself.
func (h *Host) resolve(addr string) (host string, port int, err error) {
	i := strings.LastIndexByte(addr, ':')
	if i < 0 {
		return "", 0, fmt.Errorf("simnet: address %q missing port", addr)
	}
	host = addr[:i]
	if host == "" {
		host = h.name
	}
	port, err = strconv.Atoi(addr[i+1:])
	if err != nil {
		return "", 0, fmt.Errorf("simnet: bad port in %q: %v", addr, err)
	}
	return host, port, nil
}

// Listen implements transport.Network. The address must name this host (or
// leave the host part empty); port 0 auto-assigns.
func (h *Host) Listen(addr string) (net.Listener, error) {
	hostName, port, err := h.resolve(addr)
	if err != nil {
		return nil, err
	}
	if hostName != h.name {
		return nil, fmt.Errorf("simnet: host %s cannot listen on %s", h.name, hostName)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if port == 0 {
		for h.listeners[h.nextPort] != nil {
			h.nextPort++
		}
		port = h.nextPort
		h.nextPort++
	} else if h.listeners[port] != nil {
		return nil, fmt.Errorf("simnet: %s:%d already in use", h.name, port)
	}
	l := &listener{host: h, addr: Addr{Host: h.name, Port: port}}
	h.listeners[port] = l
	return l, nil
}

// Dial implements transport.Network, connecting from this host to addr.
func (h *Host) Dial(ctx context.Context, addr string) (net.Conn, error) {
	hostName, port, err := h.resolve(addr)
	if err != nil {
		return nil, err
	}
	remote := h.net.lookup(hostName)
	if remote == nil {
		return nil, fmt.Errorf("%w: no host %q", ErrConnRefused, hostName)
	}

	remote.mu.Lock()
	l := remote.listeners[port]
	remote.mu.Unlock()
	if l == nil {
		return nil, fmt.Errorf("%w: %s:%d", ErrConnRefused, hostName, port)
	}

	local, peer, err := h.connect(remote, port)
	if err != nil {
		return nil, err
	}

	if err := l.deliver(peer); err != nil {
		local.Close()
		return nil, fmt.Errorf("%w: %s:%d", err, hostName, port)
	}
	return local, nil
}

// connect builds the connection pair between h and remote, enforcing
// partition state and connection limits on both endpoints atomically.
func (h *Host) connect(remote *Host, port int) (local, peer *conn, err error) {
	// Lock in a fixed order to avoid deadlock on concurrent cross dials.
	a, b := h, remote
	if a.name > b.name {
		a, b = b, a
	}
	a.mu.Lock()
	if a != b {
		b.mu.Lock()
	}
	defer func() {
		if a != b {
			b.mu.Unlock()
		}
		a.mu.Unlock()
	}()

	if h.partitioned || remote.partitioned {
		return nil, nil, ErrHostPartitioned
	}
	// The limit models the paper's observation that a node can maintain at
	// most ~2,500 connections to the components it manages (§IV-A), so it
	// counts initiated connections only.
	if h.maxConns >= 0 && h.outConns >= h.maxConns {
		return nil, nil, fmt.Errorf("%w: host %s at %d dialed conns", transport.ErrConnLimit, h.name, h.outConns)
	}

	localAddr := Addr{Host: h.name, Port: -1}
	remoteAddr := Addr{Host: remote.name, Port: port}

	up := newStream(h.net, h, remote)   // local writes -> remote reads
	down := newStream(h.net, remote, h) // remote writes -> local reads

	local = &conn{
		localHost: h, remoteHost: remote, localAddr: localAddr, remoteAddr: remoteAddr,
		rd: down, wr: up, initiator: true,
	}
	peer = &conn{
		localHost: remote, remoteHost: h, localAddr: remoteAddr, remoteAddr: localAddr,
		rd: up, wr: down,
	}
	local.peer, peer.peer = peer, local

	h.conns[local] = struct{}{}
	h.outConns++
	remote.conns[peer] = struct{}{}
	return local, peer, nil
}

// dropConn removes c from the host's accounting (called once per side).
func (h *Host) dropConn(c *conn) {
	h.mu.Lock()
	if _, ok := h.conns[c]; ok {
		delete(h.conns, c)
		if c.initiator {
			h.outConns--
		}
	}
	h.mu.Unlock()
}

// Addr is a simulated network address.
type Addr struct {
	// Host is the host name.
	Host string
	// Port is the port number; -1 marks an ephemeral client endpoint.
	Port int
}

// Network implements net.Addr.
func (Addr) Network() string { return "sim" }

// String implements net.Addr.
func (a Addr) String() string {
	if a.Port < 0 {
		return a.Host + ":ephemeral"
	}
	return a.Host + ":" + strconv.Itoa(a.Port)
}

// listener implements net.Listener and transport.HandoffListener for a
// simulated host port. Like a stream's reader, Accept waits on ready alone:
// deliver and Close publish their change under mu and then wake. A listener
// that hands its connections off is never accepted from, so it holds neither
// a queue nor a wake-up channel.
type listener struct {
	host *Host
	addr Addr

	mu      sync.Mutex
	backlog []*conn        // dialed, not yet accepted
	handoff func(net.Conn) // set by Handoff: where dialed connections go instead
	closed  bool

	// handing counts handoff calls in progress, which Close waits for. A call
	// is counted under mu while the listener is open, so none is counted once
	// Close has begun to wait.
	handing sync.WaitGroup

	ready chan struct{} // 1-buffered wakeup for Accept, made by its first call
}

// deliver hands a dialed connection to the handoff callback or the accept
// queue. The lock makes delivery and Close mutually exclusive, so a
// connection can never be left stranded (and silently open) in the backlog
// of a closed listener. The callback runs outside the lock, counted in
// handing.
func (l *listener) deliver(c *conn) error {
	l.mu.Lock()
	switch {
	case l.closed:
		l.mu.Unlock()
		return ErrConnRefused
	case l.handoff != nil:
		fn := l.handoff
		l.handing.Add(1)
		l.mu.Unlock()
		fn(c)
		l.handing.Done()
		return nil
	case len(l.backlog) >= maxBacklog:
		l.mu.Unlock()
		return ErrBacklogFull
	}
	l.backlog = append(l.backlog, c)
	ready := l.ready
	l.mu.Unlock()
	wake(ready)
	return nil
}

// Handoff implements transport.HandoffListener. Connections already waiting
// in the backlog go to fn first, in the order they were dialed. On a closed
// listener it does nothing: Close severed the backlog.
func (l *listener) Handoff(fn func(net.Conn)) {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return
	}
	l.handoff = fn
	waiting := l.backlog
	l.backlog = nil
	l.handing.Add(1)
	l.mu.Unlock()
	for _, c := range waiting {
		fn(c)
	}
	l.handing.Done()
}

// Accept implements net.Listener.
func (l *listener) Accept() (net.Conn, error) {
	for {
		l.mu.Lock()
		if l.ready == nil {
			l.ready = make(chan struct{}, 1)
		}
		ready := l.ready
		if len(l.backlog) > 0 {
			c := l.backlog[0]
			l.backlog[0] = nil
			l.backlog = l.backlog[1:]
			more := len(l.backlog) > 0
			if !more {
				l.backlog = nil // an idle listener holds no queue
			}
			l.mu.Unlock()
			if more {
				wake(ready) // in case another Accept is blocked too
			}
			return c, nil
		}
		closed := l.closed
		l.mu.Unlock()
		if closed {
			wake(ready) // closed stays closed: pass the wakeup on
			return nil, net.ErrClosed
		}
		<-ready
	}
}

// Close implements net.Listener. Connections still waiting in the backlog
// are severed: their dialers would otherwise hang on a peer no one will
// ever accept. A handoff in progress finishes before Close returns.
func (l *listener) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	stranded := l.backlog
	l.backlog = nil
	ready := l.ready
	l.mu.Unlock()
	wake(ready)
	l.handing.Wait()
	l.host.mu.Lock()
	delete(l.host.listeners, l.addr.Port)
	l.host.mu.Unlock()
	for _, c := range stranded {
		c.Close()
	}
	return nil
}

// Addr implements net.Listener.
func (l *listener) Addr() net.Addr { return l.addr }

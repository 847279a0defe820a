package simnet

import (
	"container/heap"
	"io"
	"net"
	"os"
	"runtime"
	"sync"
	"time"
)

// stream is one direction of a connection: a byte buffer the writer appends
// to and the reader consumes, with a watermark that says how much of it has
// arrived. Latency modeling happens at write time. On a timed network each
// write gets an arrival time from the hosts' processors and the network
// config, and the Net's central scheduler advances the watermark by the
// write's length when that time comes; on an unmodelled network the write
// advances it itself. Bytes therefore always leave in the order they were
// written — a delivery only says how many more of them are readable, so
// jittered arrival times cannot reorder a connection. A single scheduler
// goroutine serves the whole network, so timer-granularity overshoot is
// amortized across every in-flight message instead of being paid per message.
//
// A blocked reader waits on ready and on nothing else. Every event it can be
// woken for — bytes arriving, the writer closing, its own side closing, its
// deadline expiring — is a field below that is set under mu BEFORE wake is
// called, and read re-checks all of them after every wake. Set the flag, then
// wake: an event signalled the other way round can be slept through.
type stream struct {
	net    *Net
	txHost *Host // the writing host (processor charged)
	rxHost *Host // the reading host (processor charged)

	mu          sync.Mutex
	buf         []byte      // unread bytes in write order, from off
	off         int         // buf[:off] has been handed to the reader
	arrived     int         // watermark: buf[off:arrived] is readable, the rest in flight
	wclosed     bool        // the writing side closed: EOF once everything arrived and was read
	rclosed     bool        // the reading side closed: reads fail, the peer's writes fail fast
	rexpired    bool        // the read deadline has passed
	rtimer      *time.Timer // the pending read deadline, if any
	wdeadline   time.Time   // the write deadline; zero for none
	lastSendEnd time.Time
	written     uint64 // bytes accepted by write: both hosts' traffic accounting

	ready chan struct{} // 1-buffered wakeup for the reader
}

// maxIdleBuf bounds the buffer a drained stream keeps for its next write:
// the occasional giant frame is dropped rather than pinned by an idle
// connection.
const maxIdleBuf = 1 << 16

func newStream(n *Net, tx, rx *Host) *stream {
	return &stream{net: n, txHost: tx, rxHost: rx, ready: make(chan struct{}, 1)}
}

// closeWrite signals EOF to the reader once in-flight bytes drain, and fails
// further writes.
func (s *stream) closeWrite() {
	s.mu.Lock()
	s.wclosed = true
	s.mu.Unlock()
	wake(s.ready)
}

// bytes returns how many bytes the stream has carried.
func (s *stream) bytes() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.written
}

// closeRead fails the local reader and tells the writer its peer is gone.
func (s *stream) closeRead() {
	s.mu.Lock()
	s.rclosed = true
	s.mu.Unlock()
	wake(s.ready)
}

// wake nudges the goroutine sleeping on a 1-buffered ready channel, if any.
// Callers have already published, under the owner's mu, whatever the sleeper
// is to find.
func wake(ready chan struct{}) {
	select {
	case ready <- struct{}{}:
	default:
	}
}

// arrival computes when data written now becomes readable: sender
// processing, per-connection bandwidth serialization, propagation, and
// receiver processing. Callers hold mu.
func (s *stream) arrival(n int, now time.Time) time.Time {
	cfg := &s.net.cfg
	start := s.txHost.proc.schedule(now, n, cfg)
	if s.lastSendEnd.After(start) {
		start = s.lastSendEnd
	}
	if cfg.Bandwidth > 0 {
		start = start.Add(time.Duration(float64(n) / cfg.Bandwidth * float64(time.Second)))
	}
	s.lastSendEnd = start
	arrive := start.Add(cfg.PropDelay + s.net.jitter())
	return s.rxHost.proc.schedule(arrive, n, cfg)
}

// deliver makes n more written bytes readable (scheduler callback).
func (s *stream) deliver(n int) {
	s.mu.Lock()
	s.arrived += n
	s.mu.Unlock()
	wake(s.ready)
}

// write appends a copy of p (callers reuse their frame buffers immediately)
// and makes it readable at its computed arrival time. It never blocks on
// buffer capacity; backpressure in the control plane comes from the
// request/response protocol above, not the pipe.
func (s *stream) write(p []byte) (int, error) {
	var now time.Time
	if s.net.timed {
		now = time.Now()
	}
	s.mu.Lock()
	var err error
	switch {
	case s.wclosed:
		err = net.ErrClosed
	case s.rclosed:
		err = io.ErrClosedPipe
	case !s.wdeadline.IsZero() && !time.Now().Before(s.wdeadline):
		err = os.ErrDeadlineExceeded
	}
	if err != nil {
		s.mu.Unlock()
		return 0, err
	}
	if s.off > 0 && len(s.buf)+len(p) > cap(s.buf) {
		// Reclaim the consumed prefix before growing, so a reader that
		// never quite catches up does not make the buffer grow forever.
		s.buf = s.buf[:copy(s.buf, s.buf[s.off:])]
		s.arrived -= s.off
		s.off = 0
	}
	s.buf = append(s.buf, p...)
	s.written += uint64(len(p))
	due := now // an unmodelled network: readable at once
	if s.net.timed {
		due = s.arrival(len(p), now)
	}
	if !due.After(now) {
		s.arrived += len(p)
		s.mu.Unlock()
		wake(s.ready)
	} else {
		s.mu.Unlock()
		s.net.sched.add(delivery{due: due, s: s, n: len(p)})
	}
	return len(p), nil
}

// read copies arrived bytes into p, blocking until there are some or the
// stream fails. One read may return the bytes of several writes.
func (s *stream) read(p []byte) (int, error) {
	for {
		s.mu.Lock()
		if s.arrived > s.off {
			n := copy(p, s.buf[s.off:s.arrived])
			s.off += n
			if s.off == len(s.buf) {
				// Drained: the next write starts at the front again.
				if cap(s.buf) > maxIdleBuf {
					s.buf = nil
				}
				s.buf, s.off, s.arrived = s.buf[:0], 0, 0
			}
			s.mu.Unlock()
			return n, nil
		}
		var err error
		switch {
		case s.rclosed:
			err = net.ErrClosed
		case s.rexpired:
			err = os.ErrDeadlineExceeded
		case s.wclosed && s.arrived == len(s.buf):
			err = io.EOF
		}
		s.mu.Unlock()
		if err != nil {
			// These conditions persist: pass the wakeup on, in case another
			// Read is blocked on this connection too.
			wake(s.ready)
			return 0, err
		}
		<-s.ready
	}
}

// setReadDeadline implements net.Conn deadline semantics for the reader:
// a deadline that passes wakes a blocked Read, and clearing or moving it
// re-arms reads. The zero time means no deadline.
func (s *stream) setReadDeadline(t time.Time) {
	s.mu.Lock()
	if s.rtimer != nil {
		// If it has fired already, its callback finds itself replaced.
		s.rtimer.Stop()
		s.rtimer = nil
	}
	var left time.Duration
	if !t.IsZero() {
		left = time.Until(t)
	}
	expired := !t.IsZero() && left <= 0
	s.rexpired = expired
	if left > 0 {
		var timer *time.Timer
		timer = time.AfterFunc(left, func() {
			s.mu.Lock()
			current := s.rtimer == timer
			if current {
				s.rexpired = true
			}
			s.mu.Unlock()
			if current {
				wake(s.ready)
			}
		})
		s.rtimer = timer
	}
	s.mu.Unlock()
	if expired {
		wake(s.ready)
	}
}

// setWriteDeadline records the writer's deadline. Writes never block, so
// there is nothing to wake: write compares the clock when one is set.
func (s *stream) setWriteDeadline(t time.Time) {
	s.mu.Lock()
	s.wdeadline = t
	s.mu.Unlock()
}

// delivery is one scheduled arrival: at due, n more bytes of s are readable.
type delivery struct {
	due time.Time
	s   *stream
	n   int
}

// deliveryHeap is a min-heap of deliveries by due time.
type deliveryHeap []delivery

func (h deliveryHeap) Len() int           { return len(h) }
func (h deliveryHeap) Less(i, j int) bool { return h[i].due.Before(h[j].due) }
func (h deliveryHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *deliveryHeap) Push(x any)        { *h = append(*h, x.(delivery)) }
func (h *deliveryHeap) Pop() any          { old := *h; n := len(old); d := old[n-1]; *h = old[:n-1]; return d }
func (h deliveryHeap) peek() delivery     { return h[0] }

// scheduler delivers scheduled arrivals when they come due. One goroutine
// serves the whole simulated network; it parks itself when idle.
type scheduler struct {
	mu      sync.Mutex
	heap    deliveryHeap
	running bool
	kick    chan struct{}
}

func newScheduler() *scheduler {
	return &scheduler{kick: make(chan struct{}, 1)}
}

// add schedules one delivery, starting or kicking the loop as needed.
func (sc *scheduler) add(d delivery) {
	sc.mu.Lock()
	newEarliest := len(sc.heap) == 0 || d.due.Before(sc.heap.peek().due)
	heap.Push(&sc.heap, d)
	start := !sc.running
	if start {
		sc.running = true
	}
	sc.mu.Unlock()
	if start {
		go sc.loop()
	} else if newEarliest {
		select {
		case sc.kick <- struct{}{}:
		default:
		}
	}
}

// spinThreshold is the wait below which the scheduler yields rather than
// arming a timer. Operating-system timer wakeups have roughly millisecond
// granularity when a process is otherwise idle, which would quantize the
// microsecond-scale message timing the latency model depends on; yielding
// keeps delivery precise while still ceding the CPU to runnable work.
const spinThreshold = 2 * time.Millisecond

// loop delivers due arrivals in batches and exits when the heap drains.
func (sc *scheduler) loop() {
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	for {
		sc.mu.Lock()
		now := time.Now()
		// Deliver everything due.
		var batch []delivery
		for len(sc.heap) > 0 && !sc.heap.peek().due.After(now) {
			batch = append(batch, heap.Pop(&sc.heap).(delivery))
		}
		var wait time.Duration
		if len(sc.heap) > 0 {
			wait = time.Until(sc.heap.peek().due)
		} else if len(batch) == 0 {
			sc.running = false
			sc.mu.Unlock()
			return
		}
		sc.mu.Unlock()

		for _, d := range batch {
			d.s.deliver(d.n)
		}
		switch {
		case wait <= 0:
			continue
		case wait < spinThreshold:
			runtime.Gosched()
			continue
		}
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		timer.Reset(wait)
		select {
		case <-timer.C:
		case <-sc.kick:
		}
	}
}

// conn is one endpoint of a simulated connection.
type conn struct {
	localHost  *Host
	remoteHost *Host
	localAddr  Addr
	remoteAddr Addr

	rd *stream // incoming: peer writes, we read
	wr *stream // outgoing: we write, peer reads

	peer      *conn
	initiator bool // true on the dialing side (counts toward the limit)
}

var _ net.Conn = (*conn)(nil)

// Read implements net.Conn.
func (c *conn) Read(p []byte) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	n, err := c.rd.read(p)
	if err != nil && err != io.EOF && err != os.ErrDeadlineExceeded {
		err = &net.OpError{Op: "read", Net: "sim", Addr: c.remoteAddr, Err: err}
	}
	return n, err
}

// Write implements net.Conn.
func (c *conn) Write(p []byte) (int, error) {
	n, err := c.wr.write(p)
	if err != nil && err != os.ErrDeadlineExceeded {
		err = &net.OpError{Op: "write", Net: "sim", Addr: c.remoteAddr, Err: err}
	}
	return n, err
}

// Close implements net.Conn. Data already written remains readable by the
// peer (followed by EOF), as with a TCP FIN. Closing twice is harmless.
func (c *conn) Close() error {
	c.wr.closeWrite() // peer sees EOF after draining buffered data
	c.rd.closeRead()  // local reads fail; peer writes fail fast
	// Either side closing frees the connection slot on both hosts.
	c.localHost.dropConn(c)
	c.remoteHost.dropConn(c.peer)
	return nil
}

// LocalAddr implements net.Conn.
func (c *conn) LocalAddr() net.Addr { return c.localAddr }

// RemoteAddr implements net.Conn.
func (c *conn) RemoteAddr() net.Addr { return c.remoteAddr }

// SetDeadline implements net.Conn.
func (c *conn) SetDeadline(t time.Time) error {
	c.rd.setReadDeadline(t)
	c.wr.setWriteDeadline(t)
	return nil
}

// SetReadDeadline implements net.Conn.
func (c *conn) SetReadDeadline(t time.Time) error {
	c.rd.setReadDeadline(t)
	return nil
}

// SetWriteDeadline implements net.Conn.
func (c *conn) SetWriteDeadline(t time.Time) error {
	c.wr.setWriteDeadline(t)
	return nil
}

// Package transport abstracts how sdscale control-plane components reach
// each other.
//
// Two implementations exist: simnet (an in-process simulated network used to
// reproduce the paper's experiments at 10,000-node scale on one machine) and
// tcpnet (real TCP for multi-host deployments). Everything above this layer
// — RPC, controllers, stages — is transport-agnostic.
//
// The package also provides Meter, the byte-accounting hook that feeds the
// per-controller network rows of the paper's resource-utilization tables
// (Tables II-IV).
package transport

import (
	"context"
	"errors"
	"net"
	"time"

	"github.com/dsrhaslab/sdscale/internal/telemetry"
)

// ErrConnLimit is returned by Dial when the dialing or target endpoint has
// reached its concurrent-connection limit. The paper observes this limit on
// Frontera nodes at 2,500 connections (§IV-A); simnet enforces it so the
// flat design's scalability cliff is reproduced by construction.
var ErrConnLimit = errors.New("transport: connection limit reached")

// Network is the minimal dial/listen surface the control plane needs.
type Network interface {
	// Listen opens a listener on addr. Address syntax is
	// implementation-defined ("host:port" for both simnet and tcpnet).
	Listen(addr string) (net.Listener, error)
	// Dial connects to addr, honoring ctx cancellation and deadline.
	Dial(ctx context.Context, addr string) (net.Conn, error)
}

// HandoffListener is a listener that can pass each connection to a callback
// as it is dialed instead of queuing it for Accept, so whoever serves it
// needs no goroutine parked in Accept. simnet's listeners implement it. A
// TCP listener does not; its server keeps an accept loop.
type HandoffListener interface {
	net.Listener
	// Handoff makes fn the destination of every connection dialed to the
	// listener from now on, and of any still waiting to be accepted. fn
	// runs on the dialer's goroutine before its Dial returns, so it must
	// not block, and it must not close the listener. Once Close returns, no
	// call of fn is running and none begins. Accept must not be called once
	// Handoff has been.
	Handoff(fn func(net.Conn))
}

// HandoffConn is the read-side counterpart of HandoffListener: a connection
// that can pass the bytes arriving on it to a callback instead of holding
// them for Read, so whoever consumes them needs no goroutine parked in Read.
// An untimed simnet connection implements it: a simulated controller then
// decodes each reply on the goroutine that wrote it, and a simulated stage
// answers each request on the goroutine that wrote it, so a stage costs no
// goroutine. A TCP connection, and a connection of a timed simnet network,
// declines; its reader then runs one goroutine that Reads the connection and
// passes each Read's bytes, and then the stream's end, to the same callback
// (rpc's pump), so both kinds of connection have one read path.
type HandoffConn interface {
	net.Conn
	// HandoffReads makes fn the destination of every byte that arrives from
	// now on, and of any already waiting, or reports false and changes
	// nothing. fn runs on the goroutine that made the bytes arrive (inside
	// the peer's Write, under whatever locks that writer holds), one call at
	// a time, with the bytes in write order. b is valid only during the call.
	// After the last bytes fn is called once more, with nil and the error
	// that ends the stream: io.EOF when the peer closed, net.ErrClosed when
	// this side did. fn must not block. It may write to the connection,
	// since a write to a connection that hands its reads off never blocks
	// (it may run the peer's callback in turn), and it may close it. Once
	// HandoffReads has returned true, Read must not be called, and read
	// deadlines have no effect.
	HandoffReads(fn func(b []byte, err error)) bool
}

// Meter accumulates transmitted and received byte counts. It is safe for
// concurrent use; controllers attach one per role and the experiment harness
// samples it to produce MB/s columns. Each MeteredConn counts into words of
// its own, and a read sums the open connections' counts with what closed
// ones left behind, so connections never write a shared word per frame.
type Meter struct {
	tx, rx telemetry.Counter
}

// Tx returns total transmitted bytes.
func (m *Meter) Tx() uint64 { return m.tx.Load() }

// Rx returns total received bytes.
func (m *Meter) Rx() uint64 { return m.rx.Load() }

// Snapshot returns the (tx, rx) totals.
func (m *Meter) Snapshot() (tx, rx uint64) { return m.tx.Load(), m.rx.Load() }

// MeteredConn wraps a net.Conn, charging traffic to a Meter. Its counts
// join the meter's closed totals when it is closed.
type MeteredConn struct {
	net.Conn
	tx, rx telemetry.Shard
}

var _ HandoffConn = (*MeteredConn)(nil)

// WithMeter returns c wrapped so its traffic is charged to m. A nil meter
// returns c unchanged.
func WithMeter(c net.Conn, m *Meter) net.Conn {
	if m == nil {
		return c
	}
	mc := &MeteredConn{Conn: c}
	m.tx.Attach(&mc.tx)
	m.rx.Attach(&mc.rx)
	return mc
}

// Read implements net.Conn.
func (c *MeteredConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.rx.Add(uint64(n))
	}
	return n, err
}

// Write implements net.Conn.
func (c *MeteredConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	if n > 0 {
		c.tx.Add(uint64(n))
	}
	return n, err
}

// HandoffReads implements HandoffConn when the wrapped connection does,
// counting the bytes it hands over as received.
func (c *MeteredConn) HandoffReads(fn func(b []byte, err error)) bool {
	hc, ok := c.Conn.(HandoffConn)
	return ok && hc.HandoffReads(func(b []byte, err error) {
		if len(b) > 0 {
			c.rx.Add(uint64(len(b)))
		}
		fn(b, err)
	})
}

// Close implements net.Conn.
func (c *MeteredConn) Close() error {
	err := c.Conn.Close()
	c.tx.Close()
	c.rx.Close()
	return err
}

// Rate converts a byte count over an elapsed duration into MB/s (decimal
// megabytes, as the paper reports).
func Rate(bytes uint64, elapsed time.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(bytes) / 1e6 / elapsed.Seconds()
}

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
// needs no goroutine parked in Accept. simnet's listeners implement it: a
// simulated stage then costs the goroutine that serves its connection and
// nothing else. A TCP listener does not; its server keeps an accept loop.
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

// Meter accumulates transmitted and received byte counts. It is safe for
// concurrent use; controllers attach one per role and the experiment harness
// samples it to produce MB/s columns. Each MeteredConn counts into words of
// its own, and a read sums the open connections' counts with what closed
// ones left behind, so connections never write a shared word per frame.
type Meter struct {
	tx, rx telemetry.Counter
}

// AddTx records n transmitted bytes that no MeteredConn counted.
func (m *Meter) AddTx(n int) { m.tx.Add(uint64(n)) }

// AddRx records n received bytes that no MeteredConn counted.
func (m *Meter) AddRx(n int) { m.rx.Add(uint64(n)) }

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

// Close implements net.Conn.
func (c *MeteredConn) Close() error {
	err := c.Conn.Close()
	c.tx.Close()
	c.rx.Close()
	return err
}

// MeteredNetwork wraps a Network so every dialed connection is charged to a
// Meter. Accepted connections must be wrapped by the listener's owner (the
// RPC server does this) because listeners hand out raw conns.
type MeteredNetwork struct {
	// Network is the underlying transport.
	Network
	// Meter receives the byte accounting for dialed connections.
	Meter *Meter
}

// Dial implements Network.
func (n *MeteredNetwork) Dial(ctx context.Context, addr string) (net.Conn, error) {
	c, err := n.Network.Dial(ctx, addr)
	if err != nil {
		return nil, err
	}
	return WithMeter(c, n.Meter), nil
}

// Rate converts a byte count over an elapsed duration into MB/s (decimal
// megabytes, as the paper reports).
func Rate(bytes uint64, elapsed time.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(bytes) / 1e6 / elapsed.Seconds()
}

package simnet

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"github.com/dsrhaslab/sdscale/internal/transport"
)

// fastCfg removes simulated latency so logic tests run instantly.
func fastCfg() Config { return Config{PropDelay: -1} }

// pair dials a connection between two hosts and returns both ends.
func pair(t *testing.T, n *Net) (client, server net.Conn) {
	t.Helper()
	srv := n.Host("server")
	l, err := srv.Listen(":0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	t.Cleanup(func() { l.Close() })

	cli := n.Host("client")
	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := l.Accept()
		if err == nil {
			accepted <- c
		}
	}()
	c, err := cli.Dial(context.Background(), l.Addr().String())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	s := <-accepted
	t.Cleanup(func() { c.Close(); s.Close() })
	return c, s
}

func TestEcho(t *testing.T) {
	n := New(fastCfg())
	c, s := pair(t, n)

	go func() {
		buf := make([]byte, 64)
		rn, err := s.Read(buf)
		if err != nil {
			t.Errorf("server read: %v", err)
			return
		}
		if _, err := s.Write(buf[:rn]); err != nil {
			t.Errorf("server write: %v", err)
		}
	}()

	msg := []byte("hello control plane")
	if _, err := c.Write(msg); err != nil {
		t.Fatalf("client write: %v", err)
	}
	got := make([]byte, len(msg))
	if _, err := io.ReadFull(c, got); err != nil {
		t.Fatalf("client read: %v", err)
	}
	if !bytes.Equal(got, msg) {
		t.Errorf("echo = %q, want %q", got, msg)
	}
}

func TestLargeTransfer(t *testing.T) {
	n := New(fastCfg())
	c, s := pair(t, n)

	payload := make([]byte, 1<<20)
	rand.New(rand.NewSource(7)).Read(payload)

	go func() {
		// Write in uneven slabs to exercise chunk boundaries.
		for off := 0; off < len(payload); {
			end := off + 1 + rand.Intn(8192)
			if end > len(payload) {
				end = len(payload)
			}
			if _, err := c.Write(payload[off:end]); err != nil {
				t.Errorf("write: %v", err)
				return
			}
			off = end
		}
		c.Close()
	}()

	got, err := io.ReadAll(s)
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("transfer corrupted: got %d bytes, want %d", len(got), len(payload))
	}
}

func TestCloseDrainsThenEOF(t *testing.T) {
	n := New(fastCfg())
	c, s := pair(t, n)

	if _, err := c.Write([]byte("tail")); err != nil {
		t.Fatalf("write: %v", err)
	}
	c.Close()

	got, err := io.ReadAll(s)
	if err != nil {
		t.Fatalf("ReadAll after peer close: %v", err)
	}
	if string(got) != "tail" {
		t.Errorf("drained %q, want %q", got, "tail")
	}
}

func TestWriteAfterPeerClose(t *testing.T) {
	n := New(fastCfg())
	c, s := pair(t, n)
	s.Close()
	// The peer reader is gone; writes must fail rather than hang.
	deadline := time.Now().Add(2 * time.Second)
	c.SetWriteDeadline(deadline)
	var err error
	for i := 0; i < 100; i++ {
		if _, err = c.Write([]byte("x")); err != nil {
			break
		}
	}
	if err == nil {
		t.Fatal("writes to closed peer kept succeeding")
	}
}

func TestLocalCloseFailsOps(t *testing.T) {
	n := New(fastCfg())
	c, _ := pair(t, n)
	c.Close()
	if _, err := c.Read(make([]byte, 1)); err == nil {
		t.Error("Read after Close succeeded")
	}
	if _, err := c.Write([]byte("x")); err == nil {
		t.Error("Write after Close succeeded")
	}
	if err := c.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}

func TestReadDeadline(t *testing.T) {
	n := New(fastCfg())
	c, _ := pair(t, n)
	c.SetReadDeadline(time.Now().Add(20 * time.Millisecond))
	start := time.Now()
	_, err := c.Read(make([]byte, 1))
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("Read = %v, want deadline exceeded", err)
	}
	if time.Since(start) > 2*time.Second {
		t.Error("deadline fired far too late")
	}
}

func TestDeadlineWakesBlockedRead(t *testing.T) {
	n := New(fastCfg())
	c, _ := pair(t, n)
	errc := make(chan error, 1)
	go func() {
		_, err := c.Read(make([]byte, 1))
		errc <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the read block
	c.SetReadDeadline(time.Now())     // wake it
	select {
	case err := <-errc:
		if !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("Read = %v, want deadline exceeded", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("blocked read was not woken by deadline")
	}
}

func TestClearingDeadlineRearms(t *testing.T) {
	n := New(fastCfg())
	c, s := pair(t, n)
	c.SetReadDeadline(time.Now().Add(-time.Second))
	if _, err := c.Read(make([]byte, 1)); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("Read = %v, want deadline exceeded", err)
	}
	c.SetReadDeadline(time.Time{}) // clear
	go s.Write([]byte("k"))
	buf := make([]byte, 1)
	if _, err := io.ReadFull(c, buf); err != nil {
		t.Fatalf("Read after clearing deadline: %v", err)
	}
}

func TestPropagationDelay(t *testing.T) {
	const delay = 5 * time.Millisecond
	n := New(Config{PropDelay: delay})
	c, s := pair(t, n)

	go func() {
		buf := make([]byte, 8)
		rn, _ := s.Read(buf)
		s.Write(buf[:rn])
	}()

	start := time.Now()
	c.Write([]byte("ping"))
	io.ReadFull(c, make([]byte, 4))
	rtt := time.Since(start)
	if rtt < 2*delay {
		t.Errorf("RTT = %v, want >= %v", rtt, 2*delay)
	}
}

func TestHostProcessingSerializes(t *testing.T) {
	// 20 one-byte messages through one receiving host at 5ms per message
	// must take >= ~100ms, even though they come from 20 parallel senders.
	n := New(Config{ProcTime: 5 * time.Millisecond})
	srv := n.Host("server")
	l, err := srv.Listen(":0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	received := make(chan time.Time, 20)
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				buf := make([]byte, 1)
				if _, err := io.ReadFull(c, buf); err == nil {
					received <- time.Now()
				}
			}(c)
		}
	}()

	start := time.Now()
	for i := 0; i < 20; i++ {
		go func(i int) {
			h := n.Host(fmt.Sprintf("client-%d", i))
			c, err := h.Dial(context.Background(), l.Addr().String())
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			c.Write([]byte{1})
		}(i)
	}
	var last time.Time
	for i := 0; i < 20; i++ {
		last = <-received
	}
	// Each message pays 5ms at its own sender (parallel) + 5ms at the
	// shared receiver (serialized): >= 20×5ms total at the receiver.
	if got := last.Sub(start); got < 95*time.Millisecond {
		t.Errorf("20 messages through a 5ms/msg host took %v, want >= ~100ms", got)
	}
}

func TestHostProcessingParallelAcrossHosts(t *testing.T) {
	// The same load spread over 20 receiving hosts must take ~10ms (one
	// send + one receive service), far less than the serialized case.
	n := New(Config{ProcTime: 5 * time.Millisecond})
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < 20; i++ {
		srv := n.Host(fmt.Sprintf("server-%d", i))
		l, err := srv.Listen(":0")
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		wg.Add(1)
		go func(l net.Listener) {
			defer wg.Done()
			c, err := l.Accept()
			if err != nil {
				return
			}
			defer c.Close()
			io.ReadFull(c, make([]byte, 1))
		}(l)
		go func(i int, addr string) {
			h := n.Host(fmt.Sprintf("c-%d", i))
			c, err := h.Dial(context.Background(), addr)
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			c.Write([]byte{1})
		}(i, l.Addr().String())
	}
	wg.Wait()
	if got := time.Since(start); got > 80*time.Millisecond {
		t.Errorf("parallel hosts took %v, want ~10ms (well under the 100ms serial case)", got)
	}
}

func TestProcPerByteChargesLargeMessages(t *testing.T) {
	n := New(Config{ProcPerByte: 10 * time.Microsecond}) // 10µs per byte
	c, s := pair(t, n)
	go c.Write(make([]byte, 1000)) // 10ms at sender + 10ms at receiver
	start := time.Now()
	if _, err := io.ReadFull(s, make([]byte, 1000)); err != nil {
		t.Fatal(err)
	}
	if got := time.Since(start); got < 15*time.Millisecond {
		t.Errorf("1000B at 10µs/B arrived in %v, want >= ~20ms", got)
	}
}

func TestBandwidthSerialization(t *testing.T) {
	// 1 MB at 10 MB/s should take >= 100ms to arrive.
	n := New(Config{PropDelay: -1, Bandwidth: 10e6})
	c, s := pair(t, n)

	go func() {
		buf := make([]byte, 1<<20)
		c.Write(buf)
	}()

	start := time.Now()
	if _, err := io.ReadFull(s, make([]byte, 1<<20)); err != nil {
		t.Fatalf("read: %v", err)
	}
	if got := time.Since(start); got < 90*time.Millisecond {
		t.Errorf("1MB at 10MB/s arrived in %v, want >= ~100ms", got)
	}
}

func TestConnLimit(t *testing.T) {
	n := New(fastCfg())
	srv := n.Host("server")
	l, err := srv.Listen(":0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		for {
			if _, err := l.Accept(); err != nil {
				return
			}
		}
	}()

	cli := n.Host("client")
	cli.SetMaxConns(3)
	var conns []net.Conn
	for i := 0; i < 3; i++ {
		c, err := cli.Dial(context.Background(), l.Addr().String())
		if err != nil {
			t.Fatalf("dial %d: %v", i, err)
		}
		conns = append(conns, c)
	}
	if got := cli.OutConnCount(); got != 3 {
		t.Fatalf("OutConnCount = %d, want 3", got)
	}
	if _, err := cli.Dial(context.Background(), l.Addr().String()); !errors.Is(err, transport.ErrConnLimit) {
		t.Fatalf("dial over limit = %v, want ErrConnLimit", err)
	}

	// Closing a connection frees a slot.
	conns[0].Close()
	waitFor(t, func() bool { return cli.OutConnCount() < 3 })
	c, err := cli.Dial(context.Background(), l.Addr().String())
	if err != nil {
		t.Fatalf("dial after close: %v", err)
	}
	c.Close()
}

func TestInboundConnsNotLimited(t *testing.T) {
	// The limit models the dialer's pool (paper §IV-A): a host at its
	// limit must still accept inbound connections — an aggregator with
	// 2,500 stages can still be reached by the global controller.
	n := New(fastCfg())
	srv := n.Host("server")
	srv.SetMaxConns(0) // server may dial nothing...
	l, _ := srv.Listen(":0")
	defer l.Close()
	go func() {
		for {
			if _, err := l.Accept(); err != nil {
				return
			}
		}
	}()
	cli := n.Host("client")
	if _, err := cli.Dial(context.Background(), l.Addr().String()); err != nil {
		t.Fatalf("inbound dial to limited host failed: %v", err)
	}
}

func TestDialerConnLimit(t *testing.T) {
	n := New(fastCfg())
	srv := n.Host("server")
	l, _ := srv.Listen(":0")
	defer l.Close()
	go func() {
		for {
			if _, err := l.Accept(); err != nil {
				return
			}
		}
	}()
	cli := n.Host("client")
	cli.SetMaxConns(1)
	if _, err := cli.Dial(context.Background(), l.Addr().String()); err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Dial(context.Background(), l.Addr().String()); !errors.Is(err, transport.ErrConnLimit) {
		t.Fatalf("second dial = %v, want ErrConnLimit", err)
	}
}

func TestDefaultConnLimitIs2500(t *testing.T) {
	n := New(Config{})
	h := n.Host("x")
	h.mu.Lock()
	max := h.maxConns
	h.mu.Unlock()
	if max != DefaultMaxConns || DefaultMaxConns != 2500 {
		t.Errorf("default max conns = %d, want 2500", max)
	}
}

func TestPartition(t *testing.T) {
	n := New(fastCfg())
	c, s := pair(t, n)
	srv := n.lookup("server")

	srv.SetPartitioned(true)
	if !srv.Partitioned() {
		t.Fatal("host not marked partitioned")
	}

	// Existing connections are severed.
	c.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := c.Read(make([]byte, 1)); err == nil {
		t.Error("read from severed conn succeeded")
	}
	_ = s

	// New dials fail in both directions.
	cli := n.Host("client")
	if _, err := cli.Dial(context.Background(), "server:40000"); !errors.Is(err, ErrHostPartitioned) {
		t.Errorf("dial to partitioned = %v, want ErrHostPartitioned", err)
	}

	// Healing restores connectivity.
	srv.SetPartitioned(false)
	l, err := srv.Listen(":0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go l.Accept()
	if _, err := cli.Dial(context.Background(), l.Addr().String()); err != nil {
		t.Errorf("dial after heal: %v", err)
	}
}

func TestByteAccounting(t *testing.T) {
	n := New(fastCfg())
	c, s := pair(t, n)
	cli, srv := n.lookup("client"), n.lookup("server")

	msg := make([]byte, 1000)
	if _, err := c.Write(msg); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(s, make([]byte, 1000)); err != nil {
		t.Fatal(err)
	}

	if tx, _ := cli.Traffic(); tx != 1000 {
		t.Errorf("client tx = %d, want 1000", tx)
	}
	if _, rx := srv.Traffic(); rx != 1000 {
		t.Errorf("server rx = %d, want 1000", rx)
	}
	if _, rx := cli.Traffic(); rx != 0 {
		t.Errorf("client rx = %d, want 0", rx)
	}
}

// TestHostTrafficEqualsBytesWritten: a host's totals are exactly the bytes
// written over its connections in each direction, whether a connection is
// still open, was closed by either end, or was read only in part.
func TestHostTrafficEqualsBytesWritten(t *testing.T) {
	n := New(fastCfg())
	rng := rand.New(rand.NewSource(1))
	var up, down uint64 // client→server and server→client bytes
	for i := 0; i < 20; i++ {
		c, s := pair(t, n)
		for j := 0; j < 5; j++ {
			a, b := 1+rng.Intn(3000), 1+rng.Intn(300)
			if _, err := c.Write(make([]byte, a)); err != nil {
				t.Fatal(err)
			}
			if _, err := s.Write(make([]byte, b)); err != nil {
				t.Fatal(err)
			}
			up, down = up+uint64(a), down+uint64(b)
		}
		switch i % 3 {
		case 0:
			c.Close()
		case 1:
			s.Close()
		}
		// On a closed connection these fail and count nothing.
		a, _ := c.Write(make([]byte, 10))
		b, _ := s.Write(make([]byte, 10))
		if i%3 != 2 && a+b != 0 {
			t.Fatalf("wrote %d and %d bytes on a closed connection", a, b)
		}
		up, down = up+uint64(a), down+uint64(b)
	}
	cli, srv := n.lookup("client"), n.lookup("server")
	if tx, rx := cli.Traffic(); tx != up || rx != down {
		t.Errorf("client traffic (%d, %d), want (%d, %d)", tx, rx, up, down)
	}
	if tx, rx := srv.Traffic(); tx != down || rx != up {
		t.Errorf("server traffic (%d, %d), want (%d, %d)", tx, rx, down, up)
	}
}

func TestDialNoListener(t *testing.T) {
	n := New(fastCfg())
	cli := n.Host("client")
	if _, err := cli.Dial(context.Background(), "nowhere:1"); !errors.Is(err, ErrConnRefused) {
		t.Errorf("dial = %v, want ErrConnRefused", err)
	}
	n.Host("there")
	if _, err := cli.Dial(context.Background(), "there:1"); !errors.Is(err, ErrConnRefused) {
		t.Errorf("dial = %v, want ErrConnRefused", err)
	}
}

func TestDialContextCanceled(t *testing.T) {
	n := New(fastCfg())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	srv := n.Host("server")
	l, _ := srv.Listen(":0")
	defer l.Close()
	// Fill the backlog is hard; canceled context is checked at handoff, so
	// an immediate cancel may still win the race. Accept either outcome but
	// never a hang.
	done := make(chan struct{})
	go func() {
		n.Host("client").Dial(ctx, l.Addr().String())
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Dial hung on canceled context")
	}
}

func TestListenerClose(t *testing.T) {
	n := New(fastCfg())
	srv := n.Host("server")
	l, _ := srv.Listen(":0")
	addr := l.Addr().String()
	errc := make(chan error, 1)
	go func() {
		_, err := l.Accept()
		errc <- err
	}()
	l.Close()
	if err := <-errc; !errors.Is(err, net.ErrClosed) {
		t.Errorf("Accept after close = %v, want net.ErrClosed", err)
	}
	if _, err := n.Host("client").Dial(context.Background(), addr); !errors.Is(err, ErrConnRefused) {
		t.Errorf("dial closed listener = %v, want ErrConnRefused", err)
	}
}

// The accept queue is bounded: a full one refuses the dial (and leaves no
// half-open connection behind), and Accept frees a slot.
func TestListenerBacklogLimit(t *testing.T) {
	n := New(Config{PropDelay: -1, MaxConnsPerHost: -1})
	l, err := n.Host("server").Listen(":0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	cli := n.Host("client")
	ctx := context.Background()
	for i := 0; i < maxBacklog; i++ {
		if _, err := cli.Dial(ctx, l.Addr().String()); err != nil {
			t.Fatalf("dial %d: %v", i, err)
		}
	}
	if _, err := cli.Dial(ctx, l.Addr().String()); !errors.Is(err, ErrBacklogFull) {
		t.Fatalf("dial into a full backlog = %v, want ErrBacklogFull", err)
	}
	if got := cli.ConnCount(); got != maxBacklog {
		t.Fatalf("client holds %d conns after a refused dial, want %d", got, maxBacklog)
	}
	if _, err := l.Accept(); err != nil {
		t.Fatalf("Accept: %v", err)
	}
	if _, err := cli.Dial(ctx, l.Addr().String()); err != nil {
		t.Fatalf("dial after Accept freed a slot: %v", err)
	}
}

// Accept waits on a 1-buffered channel, so one Close (or one burst of dials)
// must still reach every goroutine blocked in Accept.
func TestListenerWakesEveryAccept(t *testing.T) {
	n := New(fastCfg())
	l, err := n.Host("server").Listen(":0")
	if err != nil {
		t.Fatal(err)
	}
	const accepters = 4
	results := make(chan error, accepters)
	accept := func() {
		_, err := l.Accept()
		results <- err
	}
	for i := 0; i < accepters; i++ {
		go accept()
	}
	for i := 0; i < accepters; i++ {
		if _, err := n.Host("client").Dial(context.Background(), l.Addr().String()); err != nil {
			t.Fatalf("dial %d: %v", i, err)
		}
	}
	for i := 0; i < accepters; i++ {
		if err := <-results; err != nil {
			t.Fatalf("Accept %d: %v", i, err)
		}
	}
	for i := 0; i < accepters; i++ {
		go accept()
	}
	l.Close()
	for i := 0; i < accepters; i++ {
		if err := <-results; !errors.Is(err, net.ErrClosed) {
			t.Fatalf("Accept after Close = %v, want net.ErrClosed", err)
		}
	}
}

// A listener with a handoff callback gives it every connection: those still
// waiting to be accepted first, in dial order, then each new one on its
// dialer's goroutine before Dial returns. No backlog fills, so more than
// maxBacklog dials all succeed.
func TestListenerHandoff(t *testing.T) {
	n := New(Config{PropDelay: -1, MaxConnsPerHost: -1})
	l, err := n.Host("server").Listen(":0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	cli := n.Host("client")
	dial := func() net.Conn {
		t.Helper()
		c, err := cli.Dial(context.Background(), l.Addr().String())
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		return c
	}
	var dialed []net.Conn
	for i := 0; i < 3; i++ {
		dialed = append(dialed, dial())
	}
	var handed []net.Conn // appended on this goroutine, the dialer's
	l.(transport.HandoffListener).Handoff(func(c net.Conn) { handed = append(handed, c) })
	for i := 0; i < maxBacklog; i++ {
		dialed = append(dialed, dial())
		if len(handed) != len(dialed) {
			t.Fatalf("after dial %d, %d connections handed off, want %d", len(dialed), len(handed), len(dialed))
		}
	}
	for i, c := range handed {
		if c.(*conn).peer != dialed[i] {
			t.Fatalf("handoff %d is not the server end of dial %d", i, i)
		}
	}
	if _, err := dialed[0].Write([]byte("hi")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 2)
	if _, err := io.ReadFull(handed[0], buf); err != nil || string(buf) != "hi" {
		t.Fatalf("read %q, %v from a handed-off connection, want \"hi\"", buf, err)
	}
}

// Dials racing a handoff listener's Close are each handed off or refused, and
// once Close returns no handoff is running or begins.
func TestListenerHandoffClose(t *testing.T) {
	n := New(Config{PropDelay: -1, MaxConnsPerHost: -1})
	l, err := n.Host("server").Listen(":0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	var closed atomic.Bool
	var handed, late atomic.Int64
	l.(transport.HandoffListener).Handoff(func(c net.Conn) {
		handed.Add(1)
		if closed.Load() {
			late.Add(1)
		}
		c.Close()
	})
	const dialers, dials = 4, 100
	var wg sync.WaitGroup
	var ok, refused atomic.Int64
	for i := 0; i < dialers; i++ {
		wg.Add(1)
		go func(h *Host) {
			defer wg.Done()
			for j := 0; j < dials; j++ {
				_, err := h.Dial(context.Background(), addr)
				switch {
				case err == nil:
					ok.Add(1)
				case errors.Is(err, ErrConnRefused):
					refused.Add(1)
				default:
					t.Errorf("dial: %v", err)
				}
			}
		}(n.Host(fmt.Sprintf("client%d", i)))
	}
	waitFor(t, func() bool { return handed.Load() >= dialers*dials/4 })
	l.Close()
	closed.Store(true)
	wg.Wait()
	if got := late.Load(); got != 0 {
		t.Errorf("%d handoffs ran after Close returned", got)
	}
	if ok.Load() != handed.Load() || ok.Load()+refused.Load() != dialers*dials {
		t.Errorf("%d dials succeeded and %d were refused, with %d handoffs; want every dial handed off or refused",
			ok.Load(), refused.Load(), handed.Load())
	}
	if _, err := n.Host("client0").Dial(context.Background(), addr); !errors.Is(err, ErrConnRefused) {
		t.Errorf("dial after Close = %v, want ErrConnRefused", err)
	}
}

// Close does not return while a handoff is still running.
func TestListenerCloseWaitsForHandoff(t *testing.T) {
	n := New(fastCfg())
	l, err := n.Host("server").Listen(":0")
	if err != nil {
		t.Fatal(err)
	}
	entered, release := make(chan struct{}), make(chan struct{})
	l.(transport.HandoffListener).Handoff(func(c net.Conn) {
		close(entered)
		<-release
		c.Close()
	})
	dialed := make(chan error, 1)
	go func() {
		_, err := n.Host("client").Dial(context.Background(), l.Addr().String())
		dialed <- err
	}()
	<-entered
	closed := make(chan struct{})
	go func() {
		l.Close()
		close(closed)
	}()
	select {
	case <-closed:
		t.Fatal("Close returned while a handoff was running")
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	<-closed
	if err := <-dialed; err != nil {
		t.Errorf("the dial whose handoff Close waited for failed: %v", err)
	}
}

func TestListenErrors(t *testing.T) {
	n := New(fastCfg())
	h := n.Host("h")
	if _, err := h.Listen("noport"); err == nil {
		t.Error("Listen without port succeeded")
	}
	if _, err := h.Listen("other:1"); err == nil {
		t.Error("Listen on foreign host succeeded")
	}
	if _, err := h.Listen(":bad"); err == nil {
		t.Error("Listen with non-numeric port succeeded")
	}
	l, err := h.Listen(":777")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := h.Listen(":777"); err == nil {
		t.Error("double Listen on same port succeeded")
	}
}

func TestAddrStrings(t *testing.T) {
	a := Addr{Host: "h", Port: 9}
	if a.Network() != "sim" || a.String() != "h:9" {
		t.Errorf("Addr = %s/%s", a.Network(), a.String())
	}
	e := Addr{Host: "h", Port: -1}
	if e.String() != "h:ephemeral" {
		t.Errorf("ephemeral Addr = %s", e.String())
	}
}

func TestHostsSnapshot(t *testing.T) {
	n := New(fastCfg())
	n.Host("a")
	n.Host("b")
	n.Host("a") // idempotent
	if got := len(n.Hosts()); got != 2 {
		t.Errorf("Hosts = %d, want 2", got)
	}
}

func TestConcurrentConns(t *testing.T) {
	n := New(fastCfg())
	srv := n.Host("server")
	srv.SetMaxConns(-1)
	l, _ := srv.Listen(":0")
	defer l.Close()

	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				io.Copy(c, c) // echo
			}(c)
		}
	}()

	const workers = 50
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			h := n.Host("client")
			c, err := h.Dial(context.Background(), l.Addr().String())
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			defer c.Close()
			msg := []byte{byte(id), byte(id >> 8), 1, 2, 3}
			if _, err := c.Write(msg); err != nil {
				t.Errorf("write: %v", err)
				return
			}
			got := make([]byte, len(msg))
			if _, err := io.ReadFull(c, got); err != nil {
				t.Errorf("read: %v", err)
				return
			}
			if !bytes.Equal(got, msg) {
				t.Errorf("echo mismatch for worker %d", id)
			}
		}(i)
	}
	wg.Wait()
}

// TestStreamOrderProperty checks the byte stream is preserved across
// arbitrary write sizings.
func TestStreamOrderProperty(t *testing.T) {
	f := func(seed int64, sizes []uint16) bool {
		if len(sizes) > 32 {
			sizes = sizes[:32]
		}
		n := New(fastCfg())
		srv := n.Host("s")
		l, _ := srv.Listen(":0")
		defer l.Close()
		got := make(chan []byte, 1)
		go func() {
			c, err := l.Accept()
			if err != nil {
				got <- nil
				return
			}
			b, _ := io.ReadAll(c)
			got <- b
		}()
		c, err := n.Host("c").Dial(context.Background(), l.Addr().String())
		if err != nil {
			return false
		}
		rng := rand.New(rand.NewSource(seed))
		var sent bytes.Buffer
		for _, sz := range sizes {
			buf := make([]byte, int(sz)%1024)
			rng.Read(buf)
			sent.Write(buf)
			if _, err := c.Write(buf); err != nil {
				return false
			}
		}
		c.Close()
		return bytes.Equal(<-got, sent.Bytes())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// blockedRead starts a Read of one byte on c and returns the channel its
// error arrives on. The pause is not needed for correctness — every case
// below must hold whether or not the Read has parked yet, and -count=10
// under the race detector sees both orders — it only makes the parked
// reader, the case the set-flag-then-wake rule exists for, the common one.
func blockedRead(c net.Conn) <-chan error {
	errc := make(chan error, 1)
	go func() {
		_, err := c.Read(make([]byte, 1))
		errc <- err
	}()
	time.Sleep(2 * time.Millisecond)
	return errc
}

// wantReadErr waits for a blocked Read to fail with want.
func wantReadErr(t *testing.T, errc <-chan error, want error) {
	t.Helper()
	select {
	case err := <-errc:
		if !errors.Is(err, want) {
			t.Fatalf("Read = %v, want %v", err, want)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("blocked Read was never woken (want %v)", want)
	}
}

// TestStreamContract pins what a simnet connection promises as a net.Conn.
// A blocked reader waits on one channel, and each event below reaches it as
// a flag set before that channel is signalled; a case that hangs here is a
// flag set after its wake, or not re-checked.
func TestStreamContract(t *testing.T) {
	timed := Config{PropDelay: 3 * time.Millisecond}
	cases := []struct {
		name string
		cfg  Config
		run  func(t *testing.T, c, s net.Conn)
	}{
		{"blocked read woken by a deadline in the past", fastCfg(), func(t *testing.T, c, _ net.Conn) {
			errc := blockedRead(c)
			c.SetReadDeadline(time.Now().Add(-time.Second))
			wantReadErr(t, errc, os.ErrDeadlineExceeded)
		}},
		{"blocked read woken by a future deadline expiring", fastCfg(), func(t *testing.T, c, _ net.Conn) {
			errc := blockedRead(c)
			c.SetReadDeadline(time.Now().Add(10 * time.Millisecond))
			wantReadErr(t, errc, os.ErrDeadlineExceeded)
		}},
		{"moving a deadline disarms the old one", fastCfg(), func(t *testing.T, c, s net.Conn) {
			c.SetReadDeadline(time.Now().Add(5 * time.Millisecond))
			c.SetReadDeadline(time.Now().Add(time.Hour))
			errc := blockedRead(c)
			time.Sleep(10 * time.Millisecond) // past the first deadline
			s.Write([]byte("k"))
			if err := <-errc; err != nil {
				t.Fatalf("Read = %v after its deadline was moved out", err)
			}
		}},
		{"blocked read woken by local close", fastCfg(), func(t *testing.T, c, _ net.Conn) {
			errc := blockedRead(c)
			c.Close()
			wantReadErr(t, errc, net.ErrClosed)
		}},
		{"blocked read woken by peer close", fastCfg(), func(t *testing.T, c, s net.Conn) {
			errc := blockedRead(c)
			s.Close()
			wantReadErr(t, errc, io.EOF)
		}},
		{"peer close is EOF only after scheduled deliveries are read", timed, func(t *testing.T, c, s net.Conn) {
			got := make(chan []byte, 1)
			go func() {
				b, err := io.ReadAll(c)
				if err != nil {
					t.Errorf("ReadAll: %v", err)
				}
				got <- b
			}()
			time.Sleep(2 * time.Millisecond) // as in blockedRead
			for _, chunk := range []string{"still ", "in ", "flight"} {
				if _, err := s.Write([]byte(chunk)); err != nil {
					t.Fatalf("write: %v", err)
				}
			}
			s.Close() // all three writes are still scheduled
			if b := <-got; string(b) != "still in flight" {
				t.Fatalf("read %q before EOF, want every byte written before the close", b)
			}
		}},
		{"clearing an expired deadline re-arms read", fastCfg(), func(t *testing.T, c, s net.Conn) {
			c.SetReadDeadline(time.Now().Add(-time.Second))
			if _, err := c.Read(make([]byte, 1)); !errors.Is(err, os.ErrDeadlineExceeded) {
				t.Fatalf("Read = %v, want deadline exceeded", err)
			}
			c.SetReadDeadline(time.Time{})
			errc := blockedRead(c)
			s.Write([]byte("k"))
			if err := <-errc; err != nil {
				t.Fatalf("Read after clearing the deadline: %v", err)
			}
		}},
		{"write after peer close fails", fastCfg(), func(t *testing.T, c, s net.Conn) {
			s.Close()
			if _, err := c.Write([]byte("x")); !errors.Is(err, io.ErrClosedPipe) {
				t.Fatalf("Write to a closed peer = %v, want io.ErrClosedPipe", err)
			}
		}},
		{"write past its deadline fails until the deadline is cleared", fastCfg(), func(t *testing.T, c, _ net.Conn) {
			c.SetWriteDeadline(time.Now().Add(-time.Second))
			if _, err := c.Write([]byte("x")); !errors.Is(err, os.ErrDeadlineExceeded) {
				t.Fatalf("Write = %v, want deadline exceeded", err)
			}
			c.SetWriteDeadline(time.Time{})
			if _, err := c.Write([]byte("x")); err != nil {
				t.Fatalf("Write after clearing the deadline: %v", err)
			}
		}},
		{"one read may return two writes and ReadFull reassembles", fastCfg(), func(t *testing.T, c, s net.Conn) {
			c.Write([]byte("abc"))
			c.Write([]byte("def"))
			buf := make([]byte, 16)
			if n, err := s.Read(buf); err != nil || string(buf[:n]) != "abcdef" {
				t.Fatalf("Read = %q, %v; want both writes at once", buf[:n], err)
			}
			c.Write([]byte("gh"))
			c.Write([]byte("ijk"))
			// A frame reader's pattern: fixed-size reads that straddle writes.
			for _, want := range []string{"ghi", "jk"} {
				part := make([]byte, len(want))
				if _, err := io.ReadFull(s, part); err != nil || string(part) != want {
					t.Fatalf("ReadFull = %q, %v; want %q", part, err, want)
				}
			}
		}},
		{"a large write is not pinned once drained", fastCfg(), func(t *testing.T, c, s net.Conn) {
			big := make([]byte, maxIdleBuf+1)
			go c.Write(big)
			if _, err := io.ReadFull(s, big); err != nil {
				t.Fatalf("ReadFull: %v", err)
			}
			rd := s.(*conn).rd
			rd.mu.Lock()
			kept := cap(rd.buf)
			rd.mu.Unlock()
			if kept > maxIdleBuf {
				t.Fatalf("drained stream keeps a %d-byte buffer, want <= %d", kept, maxIdleBuf)
			}
			go c.Write([]byte("after"))
			if _, err := io.ReadFull(s, big[:5]); err != nil || string(big[:5]) != "after" {
				t.Fatalf("read after the large write = %q, %v", big[:5], err)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, s := pair(t, New(tc.cfg))
			tc.run(t, c, s)
		})
	}
}

// TestJitterKeepsByteOrder: jitter makes arrival times non-monotonic, and a
// connection must deliver its bytes in write order all the same — on an rpc
// connection a swapped pair is two swapped frames and a desynchronised
// float history.
func TestJitterKeepsByteOrder(t *testing.T) {
	n := New(Config{PropDelay: time.Millisecond, Jitter: 2 * time.Millisecond})
	c, s := pair(t, n)
	const writes = 200
	for i := 0; i < writes; i++ {
		if _, err := c.Write([]byte{byte(i)}); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	got := make([]byte, writes)
	if _, err := io.ReadFull(s, got); err != nil {
		t.Fatalf("ReadFull: %v", err)
	}
	for i, b := range got {
		if b != byte(i) {
			t.Fatalf("byte %d read back is byte %d of the stream: jitter reordered the connection", i, b)
		}
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(time.Millisecond)
	}
}

package transport

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func TestMeterCounts(t *testing.T) {
	var m Meter
	m.AddTx(100)
	m.AddTx(50)
	m.AddRx(7)
	if m.Tx() != 150 {
		t.Errorf("Tx = %d, want 150", m.Tx())
	}
	if m.Rx() != 7 {
		t.Errorf("Rx = %d, want 7", m.Rx())
	}
	tx, rx := m.Snapshot()
	if tx != 150 || rx != 7 {
		t.Errorf("Snapshot = (%d, %d)", tx, rx)
	}
}

func TestMeterConcurrent(t *testing.T) {
	var m Meter
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				m.AddTx(1)
				m.AddRx(2)
			}
		}()
	}
	wg.Wait()
	if m.Tx() != 8000 || m.Rx() != 16000 {
		t.Errorf("concurrent meter = (%d, %d), want (8000, 16000)", m.Tx(), m.Rx())
	}
}

func TestMeteredConn(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()

	var m Meter
	mc := WithMeter(a, &m)

	go io.Copy(io.Discard, b)
	if _, err := mc.Write([]byte("12345")); err != nil {
		t.Fatal(err)
	}
	go b.Write([]byte("abc"))
	buf := make([]byte, 3)
	if _, err := io.ReadFull(mc, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, []byte("abc")) {
		t.Errorf("read %q", buf)
	}
	if m.Tx() != 5 {
		t.Errorf("Tx = %d, want 5", m.Tx())
	}
	if m.Rx() != 3 {
		t.Errorf("Rx = %d, want 3", m.Rx())
	}
}

// nullConn accepts every write and fills every read, so a MeteredConn over
// it counts exactly the bytes it was asked to move.
type nullConn struct{ net.Conn }

func (nullConn) Read(p []byte) (int, error)  { return len(p), nil }
func (nullConn) Write(p []byte) (int, error) { return len(p), nil }
func (nullConn) Close() error                { return nil }

// TestMeterTotalsSurviveClose: connections count on their own shards and
// close while Snapshot runs concurrently, some with a writer still
// writing. Snapshots never decrease, and the final totals are exactly the
// bytes every connection moved, the closed ones' included.
func TestMeterTotalsSurviveClose(t *testing.T) {
	var m Meter
	stop := make(chan struct{})
	snapped := make(chan error, 1)
	go func() {
		var lastTx, lastRx uint64
		for {
			tx, rx := m.Snapshot()
			if tx < lastTx || rx < lastRx {
				snapped <- fmt.Errorf("snapshot went back: (%d, %d) after (%d, %d)", tx, rx, lastTx, lastRx)
				return
			}
			lastTx, lastRx = tx, rx
			select {
			case <-stop:
				snapped <- nil
				return
			default:
			}
		}
	}()

	const conns, writes = 64, 200
	var wg sync.WaitGroup
	var tx, rx atomic.Uint64
	for i := 0; i < conns; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := WithMeter(nullConn{}, &m)
			var writer sync.WaitGroup
			writer.Add(1)
			go func() { // races the Close below on odd connections
				defer writer.Done()
				for j := 0; j < writes; j++ {
					n, _ := c.Write(make([]byte, 1+(i+j)%7))
					tx.Add(uint64(n))
				}
			}()
			buf := make([]byte, 1+i%5)
			for j := 0; j < writes; j++ {
				n, _ := c.Read(buf)
				rx.Add(uint64(n))
			}
			if i%2 == 0 {
				writer.Wait()
			}
			c.Close()
			writer.Wait()
		}(i)
	}
	wg.Wait()
	close(stop)
	if err := <-snapped; err != nil {
		t.Fatal(err)
	}
	if gotTx, gotRx := m.Snapshot(); gotTx != tx.Load() || gotRx != rx.Load() {
		t.Errorf("meter = (%d, %d), want (%d, %d)", gotTx, gotRx, tx.Load(), rx.Load())
	}
}

func TestWithMeterNil(t *testing.T) {
	a, _ := net.Pipe()
	defer a.Close()
	if got := WithMeter(a, nil); got != a {
		t.Error("WithMeter(nil) wrapped the conn")
	}
}

// pipeNetwork is a trivial Network over net.Pipe for testing the wrapper.
type pipeNetwork struct{ server chan net.Conn }

func (p *pipeNetwork) Listen(string) (net.Listener, error) { return nil, nil }
func (p *pipeNetwork) Dial(ctx context.Context, addr string) (net.Conn, error) {
	a, b := net.Pipe()
	p.server <- b
	return a, nil
}

func TestMeteredNetwork(t *testing.T) {
	inner := &pipeNetwork{server: make(chan net.Conn, 1)}
	var m Meter
	n := &MeteredNetwork{Network: inner, Meter: &m}
	c, err := n.Dial(context.Background(), "x")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	srv := <-inner.server
	defer srv.Close()
	go io.Copy(io.Discard, srv)
	if _, err := c.Write(make([]byte, 9)); err != nil {
		t.Fatal(err)
	}
	if m.Tx() != 9 {
		t.Errorf("metered network Tx = %d, want 9", m.Tx())
	}
}

func TestRate(t *testing.T) {
	if got := Rate(1e6, time.Second); got != 1.0 {
		t.Errorf("Rate(1MB, 1s) = %g, want 1", got)
	}
	if got := Rate(5e6, 2*time.Second); got != 2.5 {
		t.Errorf("Rate(5MB, 2s) = %g, want 2.5", got)
	}
	if got := Rate(100, 0); got != 0 {
		t.Errorf("Rate(_, 0) = %g, want 0", got)
	}
	if got := Rate(100, -time.Second); got != 0 {
		t.Errorf("Rate(_, <0) = %g, want 0", got)
	}
}

func TestMeterMonotonicProperty(t *testing.T) {
	f := func(adds []uint16) bool {
		var m Meter
		var sum uint64
		for _, a := range adds {
			m.AddTx(int(a))
			sum += uint64(a)
			if m.Tx() != sum {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

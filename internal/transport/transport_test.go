package transport

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"github.com/dsrhaslab/sdscale/internal/telemetry"
)

func TestMeterCounts(t *testing.T) {
	var m Meter
	var tx, rx telemetry.Shard
	m.tx.Attach(&tx)
	m.rx.Attach(&rx)
	tx.Add(100)
	tx.Add(50)
	rx.Add(7)
	if m.Tx() != 150 {
		t.Errorf("Tx = %d, want 150", m.Tx())
	}
	if m.Rx() != 7 {
		t.Errorf("Rx = %d, want 7", m.Rx())
	}
	if gotTx, gotRx := m.Snapshot(); gotTx != 150 || gotRx != 7 {
		t.Errorf("Snapshot = (%d, %d)", gotTx, gotRx)
	}
}

func TestMeterConcurrent(t *testing.T) {
	var m Meter
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var tx, rx telemetry.Shard
			m.tx.Attach(&tx)
			m.rx.Attach(&rx)
			for j := 0; j < 1000; j++ {
				tx.Add(1)
				rx.Add(2)
			}
			tx.Close()
			rx.Close()
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

// handoffConn is a HandoffConn that keeps the callback it is given, so a
// test can drive it.
type handoffConn struct {
	nullConn
	fn func([]byte, error)
}

func (c *handoffConn) HandoffReads(fn func([]byte, error)) bool {
	c.fn = fn
	return true
}

// TestMeteredConnHandoff: a MeteredConn hands its reads off exactly when
// the connection it wraps does, and counts what it hands over as received.
func TestMeteredConnHandoff(t *testing.T) {
	var m Meter
	inner := &handoffConn{}
	var got []byte
	var ends []error
	if !WithMeter(inner, &m).(HandoffConn).HandoffReads(func(b []byte, err error) {
		got = append(got, b...)
		if err != nil {
			ends = append(ends, err)
		}
	}) {
		t.Fatal("a MeteredConn declined over a connection that hands off")
	}
	inner.fn([]byte("abc"), nil)
	inner.fn([]byte("de"), nil)
	inner.fn(nil, io.EOF)
	if string(got) != "abcde" || len(ends) != 1 || ends[0] != io.EOF {
		t.Errorf("handed %q then %v, want \"abcde\" then EOF", got, ends)
	}
	if m.Rx() != 5 {
		t.Errorf("Rx = %d, want 5", m.Rx())
	}

	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	if WithMeter(a, &m).(HandoffConn).HandoffReads(func([]byte, error) { t.Error("called") }) {
		t.Error("a MeteredConn accepted a handoff its connection cannot make")
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
		var tx telemetry.Shard
		m.tx.Attach(&tx)
		var sum uint64
		for _, a := range adds {
			tx.Add(uint64(a))
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

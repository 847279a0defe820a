package simnet

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/dsrhaslab/sdscale/internal/transport"
)

// recorder is a handoff callback that keeps what it is handed and notes any
// call that overlaps another or comes after the end.
type recorder struct {
	running  atomic.Int32
	overlap  atomic.Bool
	onBytes  func(b []byte) // runs inside the call, before the bytes are kept
	mu       sync.Mutex
	data     []byte
	ends     []error
	afterEnd bool
}

func (r *recorder) fn(b []byte, err error) {
	if r.running.Add(1) != 1 {
		r.overlap.Store(true)
	}
	defer r.running.Add(-1)
	if err == nil && r.onBytes != nil {
		r.onBytes(b)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.ends) > 0 {
		r.afterEnd = true
	}
	if err != nil {
		r.ends = append(r.ends, err)
	} else {
		r.data = append(r.data, b...)
	}
}

// result returns a copy of the bytes and ends seen so far.
func (r *recorder) result() ([]byte, []error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]byte(nil), r.data...), append([]error(nil), r.ends...)
}

// check fails t if two calls overlapped, anything followed the end, or the
// stream has not ended exactly once, with one of want.
func (r *recorder) check(t *testing.T, want ...error) {
	t.Helper()
	if r.overlap.Load() {
		t.Error("two handoff calls ran at once")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.afterEnd {
		t.Error("the callback was called after the end of the stream")
	}
	if len(r.ends) != 1 {
		t.Fatalf("the stream ended %d times (%v), want once", len(r.ends), r.ends)
	}
	for _, w := range want {
		if errors.Is(r.ends[0], w) {
			return
		}
	}
	t.Errorf("the stream ended with %v, want one of %v", r.ends[0], want)
}

// handOff installs r as c's reader, failing t if c declines.
func handOff(t *testing.T, c net.Conn, r *recorder) {
	t.Helper()
	if !c.(transport.HandoffConn).HandoffReads(r.fn) {
		t.Fatal("an untimed connection declined to hand its reads off")
	}
}

// TestHandoffConcurrentWritersInOrder: writers racing on one connection
// reach its callback one call at a time, each writer's bytes in the order
// it wrote them, none lost; the peer's close then ends the stream with
// io.EOF, once, after the last byte.
func TestHandoffConcurrentWritersInOrder(t *testing.T) {
	const writers, records = 8, 500
	c, s := pair(t, New(fastCfg()))
	r := &recorder{}
	handOff(t, c, r)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var rec [8]byte
			for i := 0; i < records; i++ {
				binary.BigEndian.PutUint32(rec[:4], uint32(w))
				binary.BigEndian.PutUint32(rec[4:], uint32(i))
				if _, err := s.Write(rec[:]); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	s.Close()
	data, _ := r.result()
	if len(data) != writers*records*8 {
		t.Fatalf("the callback was handed %d bytes, want %d", len(data), writers*records*8)
	}
	next := make([]uint32, writers)
	for i := 0; i < len(data); i += 8 {
		w, seq := binary.BigEndian.Uint32(data[i:]), binary.BigEndian.Uint32(data[i+4:])
		if w >= writers || seq != next[w] {
			t.Fatalf("record %d is writer %d's #%d, want its #%d", i/8, w, seq, next[w])
		}
		next[w]++
	}
	r.check(t, io.EOF)
}

// TestHandoffWriteDuringCallKeepsBytes: a write that arrives while the
// callback runs appends and returns without waiting for it, and does not
// move the bytes the running call holds — even when reclaiming the handed
// over prefix would have made room for it in place. A write deadline keeps
// the stream on its locked path, whose buffer the first call then reads.
func TestHandoffWriteDuringCallKeepsBytes(t *testing.T) {
	c, s := pair(t, New(fastCfg()))
	r := &recorder{}
	handOff(t, c, r)
	s.SetWriteDeadline(time.Now().Add(time.Hour))
	// A first frame grows the buffer to ~1 KB; handed over, it rewinds.
	s.Write(make([]byte, 1000))
	first, second := bytes.Repeat([]byte{'a'}, 600), bytes.Repeat([]byte{'b'}, 600)
	var corrupted, wrote atomic.Bool
	r.onBytes = func(b []byte) {
		if b[0] != 'a' || wrote.Load() {
			return
		}
		held := append([]byte(nil), b...)
		done := make(chan struct{})
		go func() {
			defer close(done)
			if _, err := s.Write(second); err != nil {
				t.Error(err)
			}
		}()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Error("a write waited for the running callback")
			return
		}
		wrote.Store(true)
		corrupted.Store(!bytes.Equal(b, held))
	}
	s.Write(first)
	if !wrote.Load() {
		t.Fatal("the write during the call never ran")
	}
	if corrupted.Load() {
		t.Fatal("a write during the call overwrote the bytes the call was reading")
	}
	data, _ := r.result()
	if want := append(append(make([]byte, 1000), first...), second...); !bytes.Equal(data, want) {
		t.Fatalf("the callback was handed %d bytes, not the %d written in order", len(data), len(want))
	}
}

// TestHandoffEndsOnce: the end of the stream reaches the callback exactly
// once and after every byte, whichever side closes, from wherever.
func TestHandoffEndsOnce(t *testing.T) {
	t.Run("peer close is io.EOF after the last byte", func(t *testing.T) {
		c, s := pair(t, New(fastCfg()))
		s.Write([]byte("early")) // before the handoff: handed over by it
		r := &recorder{}
		handOff(t, c, r)
		if data, _ := r.result(); string(data) != "early" {
			t.Fatalf("HandoffReads returned with %q handed over, want the bytes already waiting", data)
		}
		s.Write([]byte(" late"))
		s.Close()
		c.Close() // the end is out already: nothing more
		if data, _ := r.result(); string(data) != "early late" {
			t.Fatalf("handed %q", data)
		}
		r.check(t, io.EOF)
	})
	t.Run("a stream ended before the handoff ends at it", func(t *testing.T) {
		c, s := pair(t, New(fastCfg()))
		s.Write([]byte("x"))
		s.Close()
		r := &recorder{}
		handOff(t, c, r)
		if data, _ := r.result(); string(data) != "x" {
			t.Fatalf("handed %q", data)
		}
		r.check(t, io.EOF)
	})
	t.Run("local close is net.ErrClosed", func(t *testing.T) {
		c, s := pair(t, New(fastCfg()))
		r := &recorder{}
		handOff(t, c, r)
		c.Close()
		if _, err := s.Write([]byte("x")); err == nil {
			t.Error("the peer wrote to a closed reader")
		}
		s.Close()
		r.check(t, net.ErrClosed)
	})
	t.Run("close from inside the callback", func(t *testing.T) {
		c, s := pair(t, New(fastCfg()))
		r := &recorder{}
		r.onBytes = func([]byte) { c.Close() }
		handOff(t, c, r)
		s.Write([]byte("x"))
		if _, ends := r.result(); len(ends) != 1 {
			t.Fatalf("after a close inside the call the stream ended %d times, want once before the write returned", len(ends))
		}
		s.Close()
		r.check(t, net.ErrClosed)
	})
	t.Run("closes racing writers", func(t *testing.T) {
		for i := 0; i < 50; i++ {
			c, s := pair(t, New(fastCfg()))
			r := &recorder{}
			handOff(t, c, r)
			var wg sync.WaitGroup
			for w := 0; w < 4; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for j := 0; j < 100; j++ {
						if _, err := s.Write([]byte{byte(j)}); err != nil {
							return
						}
					}
				}()
			}
			wg.Add(2)
			go func() { defer wg.Done(); c.Close() }()
			go func() { defer wg.Done(); s.Close() }()
			wg.Wait()
			r.check(t, io.EOF, net.ErrClosed)
		}
	})
}

// TestHandoffDeclinedOnTimedNet: on a network with a latency model, bytes
// arrive on the scheduler's goroutine, so a connection declines the handoff
// and keeps serving Read.
func TestHandoffDeclinedOnTimedNet(t *testing.T) {
	c, s := pair(t, New(Config{PropDelay: time.Millisecond}))
	r := &recorder{}
	if c.(transport.HandoffConn).HandoffReads(r.fn) {
		t.Fatal("a timed connection accepted a handoff")
	}
	s.Write([]byte("x"))
	buf := make([]byte, 1)
	if _, err := io.ReadFull(c, buf); err != nil || buf[0] != 'x' {
		t.Fatalf("Read after a declined handoff = %q, %v", buf, err)
	}
	if data, ends := r.result(); len(data) > 0 || len(ends) > 0 {
		t.Fatal("a declined callback was called")
	}
}

// handoffState returns the hand-off state of the stream c reads.
func handoffState(c net.Conn) uint32 { return c.(*conn).rd.state.Load() }

// TestHandoffFastPathRacers: a writer that finds the stream idle hands its
// own bytes to the callback without taking the lock. A second writer and a
// closer that arrive while that call runs neither wait for it nor overlap
// it: their bytes and the end reach the callback afterwards, from the first
// writer, the bytes in the order written and the end once, after them.
func TestHandoffFastPathRacers(t *testing.T) {
	c, s := pair(t, New(fastCfg()))
	r := &recorder{}
	handOff(t, c, r)
	if st := handoffState(c); st != idle {
		t.Fatalf("a stream just handed off is in state %d, want idle", st)
	}
	const records = 50
	var raced atomic.Bool
	r.onBytes = func(b []byte) {
		if b[0] != 'A' || raced.Swap(true) {
			return
		}
		if st := handoffState(c); st != claimed {
			t.Errorf("the first write's call runs in state %d, want claimed", st)
		}
		within := func(what string, fn func()) {
			done := make(chan struct{})
			go func() { defer close(done); fn() }()
			select {
			case <-done:
			case <-time.After(5 * time.Second):
				t.Errorf("%s waited for the running callback", what)
			}
		}
		within("a second writer", func() {
			for i := 0; i < records; i++ {
				if _, err := s.Write([]byte{'B', byte(i)}); err != nil {
					t.Error(err)
					return
				}
			}
		})
		within("a closer", func() { s.Close() })
		if st := handoffState(c); st != marked {
			t.Errorf("after a racing write and close the stream is in state %d, want marked", st)
		}
		if data, ends := r.result(); len(data) > 0 || len(ends) > 0 {
			t.Errorf("the callback was called again while its first call ran: %d bytes, %d ends", len(data), len(ends))
		}
	}
	if _, err := s.Write([]byte{'A', 0}); err != nil {
		t.Fatal(err)
	}
	if !raced.Load() {
		t.Fatal("the first write did not reach the callback inside its own call")
	}
	want := []byte{'A', 0}
	for i := 0; i < records; i++ {
		want = append(want, 'B', byte(i))
	}
	if data, _ := r.result(); !bytes.Equal(data, want) {
		t.Fatalf("the callback was handed %v, want %v", data, want)
	}
	r.check(t, io.EOF)
	if st := handoffState(c); st != locked {
		t.Fatalf("an ended stream is in state %d, want locked", st)
	}
}

// TestHandoffCloseInsideFastPathCall: a close from inside a lock-free call
// of the callback, of either end, ends the stream once, after the bytes,
// before the write that made the call returns.
func TestHandoffCloseInsideFastPathCall(t *testing.T) {
	for _, tc := range []struct {
		name  string
		local bool // close the reading end, not the writing one
		want  error
	}{
		{"reader", true, net.ErrClosed},
		{"writer", false, io.EOF},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, s := pair(t, New(fastCfg()))
			r := &recorder{}
			r.onBytes = func([]byte) {
				if st := handoffState(c); st != claimed {
					t.Errorf("the call runs in state %d, want claimed", st)
				}
				if tc.local {
					c.Close()
				} else {
					s.Close()
				}
			}
			handOff(t, c, r)
			if _, err := s.Write([]byte("xy")); err != nil {
				t.Fatal(err)
			}
			data, ends := r.result()
			if string(data) != "xy" || len(ends) != 1 {
				t.Fatalf("when the write returned the callback had %q and %d ends, want \"xy\" and 1", data, len(ends))
			}
			c.Close()
			s.Close()
			r.check(t, tc.want)
		})
	}
}

// TestHandoffWriteDeadlineTakesLockedPath: a write deadline takes the stream
// off the lock-free path, so that a write past it fails with
// os.ErrDeadlineExceeded and a write before it still goes through; clearing
// it makes the stream idle again.
func TestHandoffWriteDeadlineTakesLockedPath(t *testing.T) {
	c, s := pair(t, New(fastCfg()))
	r := &recorder{}
	var states []uint32
	r.onBytes = func([]byte) { states = append(states, handoffState(c)) }
	handOff(t, c, r)

	s.SetWriteDeadline(time.Now().Add(-time.Second))
	if st := handoffState(c); st != locked {
		t.Fatalf("with a write deadline set the stream is in state %d, want locked", st)
	}
	if _, err := s.Write([]byte("late")); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("a write past the deadline = %v, want os.ErrDeadlineExceeded", err)
	}
	s.SetWriteDeadline(time.Now().Add(time.Hour))
	if _, err := s.Write([]byte("a")); err != nil {
		t.Fatalf("a write before the deadline = %v", err)
	}
	s.SetWriteDeadline(time.Time{})
	if st := handoffState(c); st != idle {
		t.Fatalf("with the deadline cleared the stream is in state %d, want idle", st)
	}
	if _, err := s.Write([]byte("b")); err != nil {
		t.Fatal(err)
	}
	if data, _ := r.result(); string(data) != "ab" {
		t.Fatalf("the callback was handed %q, want \"ab\"", data)
	}
	if len(states) != 2 || states[0] != locked || states[1] != claimed {
		t.Fatalf("the calls ran in states %v, want [locked claimed]", states)
	}
}

// TestHandoffWriteAfterEndFails: once either end has closed, a write takes
// the locked path and fails as on any stream: with net.ErrClosed on the end
// that closed, with io.ErrClosedPipe towards the end that did.
func TestHandoffWriteAfterEndFails(t *testing.T) {
	for _, tc := range []struct {
		name  string
		local bool // the reading end closes, not the writing one
		want  error
	}{
		{"writer closed", false, net.ErrClosed},
		{"reader closed", true, io.ErrClosedPipe},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, s := pair(t, New(fastCfg()))
			r := &recorder{}
			handOff(t, c, r)
			s.Write([]byte("x"))
			if tc.local {
				c.Close()
			} else {
				s.Close()
			}
			if st := handoffState(c); st != locked {
				t.Fatalf("after the close the stream is in state %d, want locked", st)
			}
			if _, err := s.Write([]byte("y")); !errors.Is(err, tc.want) {
				t.Fatalf("a write after the close = %v, want %v", err, tc.want)
			}
			if data, _ := r.result(); string(data) != "x" {
				t.Fatalf("the callback was handed %q, want \"x\"", data)
			}
		})
	}
}

package rpc

import (
	"context"
	"errors"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/dsrhaslab/sdscale/internal/wire"
)

// inflightClient returns a client whose server the test plays: respond
// hands the client a HeartbeatAck for request id, echoing id, and returns
// once the client's reader has handled it. The client's first call is
// request 1.
func inflightClient(t *testing.T) (cli *Client, respond func(id uint64), end func(error)) {
	t.Helper()
	conn := &handoffConn{fuzzConn: &fuzzConn{}}
	cli = newClient(conn, DialOptions{})
	t.Cleanup(func() { cli.Close() })
	hist := wire.NewFloatHistory()
	respond = func(id uint64) {
		conn.deliver(appendFrame(nil, frameHeader{id: id, kind: kindResponse},
			&wire.HeartbeatAck{EchoUnixMicros: int64(id)}, hist), nil)
	}
	return cli, respond, func(err error) { conn.deliver(nil, err) }
}

// goHeartbeats issues n calls on cli and returns their handles.
func goHeartbeats(cli *Client, n int) []*Call {
	calls := make([]*Call, n)
	for i := range calls {
		calls[i] = cli.Go(context.Background(), &wire.Heartbeat{})
	}
	return calls
}

// waitWithin returns call.Wait(ctx), failing the test if Wait has not
// returned within five seconds.
func waitWithin(t *testing.T, ctx context.Context, call *Call) (wire.Message, error) {
	t.Helper()
	type result struct {
		m   wire.Message
		err error
	}
	got := make(chan result, 1)
	go func() {
		m, err := call.Wait(ctx)
		got <- result{m, err}
	}()
	select {
	case r := <-got:
		return r.m, r.err
	case <-time.After(5 * time.Second):
		t.Fatal("Wait still blocked after 5s")
		return nil, nil
	}
}

// wantEcho fails the test unless call completed with the reply to request id.
func wantEcho(t *testing.T, call *Call, id uint64) {
	t.Helper()
	m, err := waitWithin(t, context.Background(), call)
	if err != nil {
		t.Fatalf("call %d: %v", id, err)
	}
	if got := m.(*wire.HeartbeatAck).EchoUnixMicros; got != int64(id) {
		t.Fatalf("call %d got the reply to call %d", id, got)
	}
}

// table returns the request ID in the client's slot (0 if it is empty) and
// the number of calls in its map.
func table(cli *Client) (slotID uint64, inMap int) {
	cli.mu.Lock()
	defer cli.mu.Unlock()
	return cli.slot.Load(), len(cli.pending)
}

// wantTable fails the test unless the slot holds request slotID (0: empty)
// and the map inMap calls.
func wantTable(t *testing.T, cli *Client, slotID uint64, inMap int) {
	t.Helper()
	if gotID, gotMap := table(cli); gotID != slotID || gotMap != inMap {
		t.Fatalf("slot holds request %d and the map %d calls, want request %d and %d calls", gotID, gotMap, slotID, inMap)
	}
}

// wantEmptyTable fails the test if the client still holds a call in flight.
func wantEmptyTable(t *testing.T, cli *Client) {
	t.Helper()
	wantTable(t, cli, 0, 0)
}

// TestInflightOutOfOrder: with three calls in flight on one client, the
// first on the inline handle in the slot and the others in the map,
// responses arriving in any order complete exactly their own calls. The
// inline handle is reused only once its Wait has returned: a call issued
// before then goes to the map though the slot is empty, and one issued after
// takes the slot even though the map still holds calls.
func TestInflightOutOfOrder(t *testing.T) {
	cli, respond, _ := inflightClient(t)
	calls := goHeartbeats(cli, 3) // requests 1, 2, 3
	if calls[0] != &cli.call {
		t.Fatal("the first call did not get the inline handle")
	}
	wantTable(t, cli, 1, 2)

	// 3 and 1 answer first; 2 is still in the map when request 4 comes.
	for _, id := range []uint64{3, 1} {
		respond(id)
		if !calls[id-1].completed() {
			t.Fatalf("the response to request %d did not complete it", id)
		}
	}
	if calls[1].completed() {
		t.Fatal("request 2 completed before its response arrived")
	}
	calls = append(calls, goHeartbeats(cli, 1)...) // request 4
	wantTable(t, cli, 0, 2)
	wantEcho(t, calls[0], 1)                       // hands the inline handle back
	calls = append(calls, goHeartbeats(cli, 1)...) // request 5
	if calls[4] != &cli.call {
		t.Fatal("a call issued after the inline handle's Wait did not reuse it")
	}
	wantTable(t, cli, 5, 2)
	respond(2)
	respond(4)
	respond(5)
	for i, call := range calls[1:] {
		wantEcho(t, call, uint64(i+2))
	}
	wantEmptyTable(t, cli)
	if late := cli.late.Load(); late != 0 {
		t.Fatalf("%d responses dropped as late, want 0", late)
	}
}

// TestInflightFail: a connection that dies fails the call in the slot and
// every call in the map.
func TestInflightFail(t *testing.T) {
	cli, _, end := inflightClient(t)
	calls := goHeartbeats(cli, 3)
	end(io.EOF)
	for i, call := range calls {
		if !call.completed() {
			t.Fatalf("request %d still pending after its connection died", i+1)
		}
		if _, err := waitWithin(t, context.Background(), call); !errors.Is(err, ErrDisconnected) {
			t.Fatalf("request %d: %v, want ErrDisconnected", i+1, err)
		}
	}
	wantEmptyTable(t, cli)
}

// TestInflightCancel: a Wait cancelled on the call in the slot, or on a
// call in the map, abandons that call alone. The abandoned call's response is
// counted and dropped and completes no other call; the other call's own
// response still completes it, and the table is empty afterwards.
func TestInflightCancel(t *testing.T) {
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range []struct {
		name        string
		drop, other uint64 // the request abandoned, and the one answered
	}{
		{"slot", 1, 2},
		{"map", 2, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cli, respond, _ := inflightClient(t)
			calls := goHeartbeats(cli, 2)
			if _, err := waitWithin(t, cancelled, calls[tc.drop-1]); !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled Wait = %v, want context.Canceled", err)
			}
			respond(tc.drop)
			if late := cli.late.Load(); late != 1 {
				t.Fatalf("late = %d after the abandoned call's response, want 1", late)
			}
			if calls[tc.other-1].completed() {
				t.Fatalf("the abandoned call's response completed request %d", tc.other)
			}
			respond(tc.other)
			wantEcho(t, calls[tc.other-1], tc.other)
			wantEmptyTable(t, cli)
		})
	}
}

// TestInflightRegisterRacesFail: issuers calling Go and GoShared race the
// client's Close and a reader that dies on a bad frame, while the test's
// server answers every request it sees, in pairs swapped. Every Wait returns
// once, within its context, with its own call's reply or with
// ErrDisconnected or ErrClientClosed; the inline handle and the map both
// carry calls, and the table is empty at the end. A handle reused before its
// Wait returned would hand that Wait another call's outcome.
func TestInflightRegisterRacesFail(t *testing.T) {
	const issuers, perIssuer = 3, 40
	sawMap := false
	for round := 0; round < 60; round++ {
		conn := &handoffConn{fuzzConn: &fuzzConn{}}
		cli := newClient(conn, DialOptions{})
		frame := NewSharedFrame(&wire.Heartbeat{})
		var inline, own atomic.Int64
		stop := make(chan struct{})
		served := make(chan struct{})
		go func() { // the server, and so the client's only reader
			defer close(served)
			hist := wire.NewFloatHistory()
			var off, answered int
			for killAt := 20 + round; ; {
				b := conn.written()[off:]
				var ids []uint64
				for {
					h, body, rest, err := cut(b)
					if err != nil {
						t.Errorf("the client wrote a bad frame: %v", err)
						return
					}
					if body == nil {
						break
					}
					off += len(b) - len(rest)
					ids, b = append(ids, h.id), rest
				}
				for i := 0; i+1 < len(ids); i += 2 {
					ids[i], ids[i+1] = ids[i+1], ids[i]
				}
				for _, id := range ids {
					if round%2 == 0 && answered == killAt {
						conn.deliver(appendFrame(nil, frameHeader{id: id, kind: 99}, &wire.HeartbeatAck{}, nil), nil)
						return
					}
					conn.deliver(appendFrame(nil, frameHeader{id: id, kind: kindResponse},
						&wire.HeartbeatAck{EchoUnixMicros: int64(id)}, hist), nil)
					answered++
				}
				select {
				case <-stop:
					return
				default:
					runtime.Gosched()
				}
			}
		}()
		var wg sync.WaitGroup
		for g := 0; g < issuers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < perIssuer; i++ {
					var call *Call
					if (g+i)%2 == 0 {
						call = cli.Go(context.Background(), &wire.Heartbeat{})
					} else {
						call = cli.GoShared(context.Background(), frame)
					}
					if call == &cli.call {
						inline.Add(1)
					} else {
						own.Add(1)
					}
					id := call.id
					ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
					m, err := call.Wait(ctx)
					cancel()
					switch {
					case err == nil:
						if got := m.(*wire.HeartbeatAck).EchoUnixMicros; got != int64(id) {
							t.Errorf("request %d got the reply to request %d", id, got)
						}
					case errors.Is(err, ErrDisconnected), errors.Is(err, ErrClientClosed):
					default:
						t.Errorf("request %d: %v, want a reply, ErrDisconnected or ErrClientClosed", id, err)
					}
				}
			}(g)
		}
		if round%2 == 1 {
			time.Sleep(time.Duration(round) * 10 * time.Microsecond)
			cli.Close()
		}
		wg.Wait()
		frame.Release()
		cli.Close()
		close(stop)
		<-served
		if inline.Load() == 0 {
			t.Fatalf("round %d: no call used the inline handle", round)
		}
		if t.Failed() {
			t.Fatalf("round %d failed", round)
		}
		wantEmptyTable(t, cli)
		sawMap = sawMap || own.Load() > 0
	}
	if !sawMap {
		t.Fatal("no round had a second call in flight")
	}
}

package rpc

import (
	"context"
	"errors"
	"io"
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

// wantEmptyTable fails the test if the client still holds a call in flight.
func wantEmptyTable(t *testing.T, cli *Client) {
	t.Helper()
	cli.mu.Lock()
	defer cli.mu.Unlock()
	if cli.slot != nil || len(cli.pending) != 0 {
		t.Fatalf("in-flight table not empty: slot %v, %d in the map", cli.slot != nil, len(cli.pending))
	}
}

// TestInflightOutOfOrder: with three calls in flight on one client, the
// first in the slot and the others in the map, responses arriving in any
// order complete exactly their own calls. A call issued while the slot is
// free takes it even though the map still holds calls.
func TestInflightOutOfOrder(t *testing.T) {
	cli, respond, _ := inflightClient(t)
	calls := goHeartbeats(cli, 3) // requests 1, 2, 3
	cli.mu.Lock()
	slotID, inMap := cli.slot.id, len(cli.pending)
	cli.mu.Unlock()
	if slotID != 1 || inMap != 2 {
		t.Fatalf("slot holds request %d and the map %d calls, want request 1 and 2 calls", slotID, inMap)
	}

	// 3 and 1 answer first; 2 is still in the map when request 4 takes the
	// slot that 1 freed.
	for _, id := range []uint64{3, 1} {
		respond(id)
		if !calls[id-1].done.Load() {
			t.Fatalf("the response to request %d did not complete it", id)
		}
	}
	if calls[1].done.Load() {
		t.Fatal("request 2 completed before its response arrived")
	}
	calls = append(calls, goHeartbeats(cli, 1)...) // request 4
	cli.mu.Lock()
	slotID = cli.slot.id
	cli.mu.Unlock()
	if slotID != 4 {
		t.Fatalf("slot holds request %d, want 4", slotID)
	}
	respond(2)
	respond(4)
	for i, call := range calls {
		wantEcho(t, call, uint64(i+1))
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
		if !call.done.Load() {
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
			if calls[tc.other-1].done.Load() {
				t.Fatalf("the abandoned call's response completed request %d", tc.other)
			}
			respond(tc.other)
			wantEcho(t, calls[tc.other-1], tc.other)
			wantEmptyTable(t, cli)
		})
	}
}

package rpc

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/dsrhaslab/sdscale/internal/transport/simnet"
	"github.com/dsrhaslab/sdscale/internal/wire"
)

// TestGoWaitRoundTrip pipelines a burst of requests over one connection and
// harvests them in issue order; every reply must match its own request.
func TestGoWaitRoundTrip(t *testing.T) {
	_, _, cli := testSetup(t, &echoHandler{})
	ctx := context.Background()
	const calls = 64
	handles := make([]*Call, calls)
	for i := range handles {
		handles[i] = cli.Go(ctx, &wire.Heartbeat{SentUnixMicros: int64(i)})
	}
	for i, call := range handles {
		resp, err := call.Wait(ctx)
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if got := resp.(*wire.HeartbeatAck).EchoUnixMicros; got != int64(i) {
			t.Errorf("call %d echoed %d", i, got)
		}
	}
}

// TestGoWaitRemoteError checks a remote handler failure surfaces through the
// handle as *wire.ErrorReply, matching the synchronous Call contract.
func TestGoWaitRemoteError(t *testing.T) {
	_, _, cli := testSetup(t, &echoHandler{})
	ctx := context.Background()
	call := cli.Go(ctx, &wire.Enforce{Cycle: 1})
	_, err := call.Wait(ctx)
	var er *wire.ErrorReply
	if !errors.As(err, &er) {
		t.Fatalf("Wait error = %v, want *wire.ErrorReply", err)
	}
}

// TestWaitOnCompletedCall: once its response has been read a call is
// marked done, and Wait returns the reply without parking — even under a
// context that is already cancelled, which cannot abandon a finished call.
func TestWaitOnCompletedCall(t *testing.T) {
	_, _, cli := testSetup(t, &echoHandler{})
	call := cli.Go(context.Background(), &wire.Heartbeat{SentUnixMicros: 9})
	waitFor(t, "the call to complete", call.done.Load)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	resp, err := call.Wait(ctx)
	if err != nil {
		t.Fatalf("Wait = %v", err)
	}
	if got := resp.(*wire.HeartbeatAck).EchoUnixMicros; got != 9 {
		t.Errorf("echoed %d, want 9", got)
	}
}

// TestWaitOnCompletedCallAllocatesNothing: harvesting a call that has
// already completed — the common case in a pipelined fan-out's harvest —
// takes no allocation: no waiter, no channel.
func TestWaitOnCompletedCallAllocatesNothing(t *testing.T) {
	const runs = 100
	reply := &wire.HeartbeatAck{}
	calls := make([]*Call, runs+1) // AllocsPerRun adds one warm-up run
	for i := range calls {
		calls[i] = new(Call)
		calls[i].finish(reply, nil)
	}
	ctx := context.Background()
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		call := calls[next]
		next++
		if m, err := call.Wait(ctx); m != reply || err != nil {
			t.Fatalf("Wait = %v, %v", m, err)
		}
	})
	if allocs != 0 {
		t.Errorf("Wait on a completed call allocates %.1f times, want 0", allocs)
	}
}

// TestWaitIgnoresStaleWake: a completer that loaded the waiter after its
// own call was recycled wakes whoever parks on that waiter next. Such a
// stale wake must cost the woken Wait one more look at its call, and must
// not return a call that is still pending.
func TestWaitIgnoresStaleWake(t *testing.T) {
	gate := make(chan struct{})
	h := HandlerFunc(func(_ *Peer, req wire.Message) (wire.Message, error) {
		<-gate
		return &wire.HeartbeatAck{EchoUnixMicros: req.(*wire.Heartbeat).SentUnixMicros}, nil
	})
	_, _, cli := testSetup(t, h)
	ctx := context.Background()
	call := cli.Go(ctx, &wire.Heartbeat{SentUnixMicros: 2})
	type result struct {
		m   wire.Message
		err error
	}
	got := make(chan result, 1)
	go func() {
		m, err := call.Wait(ctx)
		got <- result{m, err}
	}()
	waitFor(t, "Wait to park", func() bool { return call.waiter.Load() != nil })
	w := call.waiter.Load()
	for i := 0; i < 3; i++ {
		select {
		case w.wake <- struct{}{}: // as a stale completer would
		default:
		}
		time.Sleep(2 * time.Millisecond)
	}
	select {
	case r := <-got:
		t.Fatalf("a stale wake returned a pending call: %v, %v", r.m, r.err)
	case <-time.After(20 * time.Millisecond):
	}
	close(gate)
	select {
	case r := <-got:
		if r.err != nil || r.m.(*wire.HeartbeatAck).EchoUnixMicros != 2 {
			t.Fatalf("Wait = %v, %v, want the echo of 2", r.m, r.err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the real completion never woke Wait")
	}
}

// TestPipelinedWaitsRaceCancel pipelines 10,000 calls and cancels their
// harvest's context while the server is answering them: the server holds
// the second half until another goroutine releases it and at once cancels,
// so the cancellation races parked Waits and the completions streaming in.
// Every Wait returns its own reply or ctx.Err(); every abandoned call's
// response is counted late; and a second burst, issued at once on handles
// recycled from the abandoned calls while their responses are still
// arriving, gets only its own replies.
func TestPipelinedWaitsRaceCancel(t *testing.T) {
	const calls = 10000
	gate := make(chan struct{})
	h := HandlerFunc(func(_ *Peer, req wire.Message) (wire.Message, error) {
		v := req.(*wire.Heartbeat).SentUnixMicros
		if v == calls/2 {
			<-gate
		}
		return &wire.HeartbeatAck{EchoUnixMicros: v}, nil
	})
	_, _, cli := testSetup(t, h)
	calls1 := make([]*Call, calls)
	for i := range calls1 {
		calls1[i] = cli.Go(context.Background(), &wire.Heartbeat{SentUnixMicros: int64(i)})
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var harvested atomic.Int64
	go func() {
		for harvested.Load() < calls/2 && ctx.Err() == nil { // the test's cancel ends it early
			runtime.Gosched()
		}
		close(gate)
		cancel()
	}()
	var abandoned uint64
	for i, call := range calls1 {
		resp, err := call.Wait(ctx)
		harvested.Add(1)
		switch {
		case errors.Is(err, context.Canceled):
			abandoned++
		case err != nil:
			t.Fatalf("call %d: %v", i, err)
		case resp.(*wire.HeartbeatAck).EchoUnixMicros != int64(i):
			t.Fatalf("call %d got the reply of %d", i, resp.(*wire.HeartbeatAck).EchoUnixMicros)
		}
	}
	if abandoned == 0 || abandoned > calls/2 {
		t.Fatalf("%d calls abandoned, want 1 to %d", abandoned, calls/2)
	}

	bg := context.Background()
	calls2 := make([]*Call, calls)
	for i := range calls2 {
		calls2[i] = cli.Go(bg, &wire.Heartbeat{SentUnixMicros: calls + int64(i)})
	}
	for i, call := range calls2 {
		resp, err := call.Wait(bg)
		if err != nil {
			t.Fatalf("second burst call %d: %v", i, err)
		}
		if got := resp.(*wire.HeartbeatAck).EchoUnixMicros; got != calls+int64(i) {
			t.Fatalf("second burst call %d got the reply of %d", i, got)
		}
	}
	// The second burst was answered after the first on the same connection,
	// so every late response has been read by now.
	if got := cli.LateResponses(); got != abandoned {
		t.Errorf("LateResponses = %d, want one per abandoned call (%d)", got, abandoned)
	}
}

// TestGoAfterClose checks Go on a dead client returns a handle that
// completes immediately with the failure instead of panicking or hanging.
func TestGoAfterClose(t *testing.T) {
	_, _, cli := testSetup(t, &echoHandler{})
	cli.Close()
	call := cli.Go(context.Background(), &wire.Heartbeat{})
	if _, err := call.Wait(context.Background()); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("Wait = %v, want ErrClientClosed", err)
	}
}

// TestRecycledHandleNotPoisonedByLateResponse is the pool-aliasing
// leak-check: a handle abandoned via context is recycled and immediately
// reused by the next call, while the abandoned call's response is still in
// flight. The late response must be dropped (counted in LateResponses), not
// delivered into the recycled handle.
func TestRecycledHandleNotPoisonedByLateResponse(t *testing.T) {
	// A propagation delay keeps the first response in flight while the
	// client abandons the call and recycles its handle.
	n := simnet.New(simnet.Config{PropDelay: 5 * time.Millisecond})
	srv, err := Serve(n.Host("server"), ":0", &echoHandler{}, ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := Dial(context.Background(), n.Host("client"), srv.Addr().String(), DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	for round := 0; round < 20; round++ {
		abandoned, cancel := context.WithCancel(context.Background())
		cancel() // already cancelled: Wait abandons without blocking
		callA := cli.Go(context.Background(), &wire.Heartbeat{SentUnixMicros: 1000 + int64(round)})
		if _, err := callA.Wait(abandoned); !errors.Is(err, context.Canceled) {
			t.Fatalf("round %d: abandoned Wait = %v, want context.Canceled", round, err)
		}
		// callA's handle is back in the pool; callB very likely reuses it
		// while callA's response is still traveling.
		callB := cli.Go(context.Background(), &wire.Heartbeat{SentUnixMicros: 2000 + int64(round)})
		resp, err := callB.Wait(context.Background())
		if err != nil {
			t.Fatalf("round %d: reused handle call: %v", round, err)
		}
		if got := resp.(*wire.HeartbeatAck).EchoUnixMicros; got != 2000+int64(round) {
			t.Fatalf("round %d: reused handle got reply %d, want %d (stale delivery)", round, got, 2000+round)
		}
	}
	// Every abandoned response must have been dropped, never delivered: all
	// 20 are counted late.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if cli.LateResponses() >= 20 || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if got := cli.LateResponses(); got < 20 {
		t.Errorf("late = %d, want >= 20", got)
	}
}

// TestAbandonedCallsCountLateResponses: abandonment is local to the client.
// Calls abandoned while the server is still busy with the first of them
// each return context.Canceled at once; the server then answers every one,
// and the client drops and counts each response — exactly one per abandoned
// call — on a connection that stays healthy.
func TestAbandonedCallsCountLateResponses(t *testing.T) {
	gate := make(chan struct{})
	var handled atomic.Int64
	h := HandlerFunc(func(_ *Peer, req wire.Message) (wire.Message, error) {
		if _, ok := req.(*wire.Collect); ok {
			<-gate
			handled.Add(1)
		}
		return &wire.HeartbeatAck{}, nil
	})
	_, _, cli := testSetup(t, h)

	const rounds = 20
	abandoned, cancel := context.WithCancel(context.Background())
	cancel() // already cancelled: Wait abandons without blocking
	for round := 0; round < rounds; round++ {
		call := cli.Go(context.Background(), &wire.Collect{Cycle: uint64(round)})
		if _, err := call.Wait(abandoned); !errors.Is(err, context.Canceled) {
			t.Fatalf("round %d: abandoned Wait = %v, want context.Canceled", round, err)
		}
	}
	close(gate)
	// This call is answered after the abandoned ones on the same connection,
	// so every late response has been read when it returns.
	if _, err := cli.Call(context.Background(), &wire.Heartbeat{}); err != nil {
		t.Fatalf("connection unhealthy after %d abandoned calls: %v", rounds, err)
	}
	if got := handled.Load(); got != rounds {
		t.Errorf("server handled %d abandoned requests, want all %d", got, rounds)
	}
	if got := cli.LateResponses(); got != rounds {
		t.Errorf("LateResponses = %d, want %d", got, rounds)
	}
}

// TestConcurrentCallCloseCancel is the race-focused audit of the
// close/fail/cancel interleaving: many goroutines issue calls with
// aggressive timeouts while the client is concurrently closed. Run under
// `go test -race ./internal/rpc`. Every call must return (result or error)
// without deadlock, double completion, or handle corruption.
func TestConcurrentCallCloseCancel(t *testing.T) {
	block := make(chan struct{})
	h := HandlerFunc(func(peer *Peer, req wire.Message) (wire.Message, error) {
		if hb, ok := req.(*wire.Heartbeat); ok && hb.SentUnixMicros%3 == 0 {
			select { // stall some requests so cancels and Close race dispatch
			case <-block:
			case <-time.After(50 * time.Millisecond):
			}
		}
		return &wire.HeartbeatAck{}, nil
	})
	_, _, cli := testSetup(t, h)
	defer close(block)

	var wg sync.WaitGroup
	const workers = 16
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 50; i++ {
				ctx, cancel := context.WithTimeout(context.Background(),
					time.Duration(rng.Intn(3000))*time.Microsecond)
				cli.Call(ctx, &wire.Heartbeat{SentUnixMicros: int64(w*1000 + i)})
				cancel()
			}
		}(w)
	}
	time.Sleep(10 * time.Millisecond)
	cli.Close() // races with in-flight calls and cancellations
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("workers deadlocked during concurrent Call+Close+cancel")
	}
}

// TestPipelinedSendsShareBuffers drives concurrent senders with mixed
// payload sizes through the pooled encode buffers; every echo must be
// intact. This is the encode-side no-reuse-while-aliased check: a pooled
// buffer handed to a new frame while the previous write still referenced it
// would corrupt echoes.
func TestPipelinedSendsShareBuffers(t *testing.T) {
	// The handler echoes each request's variable-size Addr back through an
	// ErrorReply so payloads of many sizes cross the shared buffer pool in
	// both directions.
	h := HandlerFunc(func(peer *Peer, req wire.Message) (wire.Message, error) {
		r := req.(*wire.Register)
		return nil, &wire.ErrorReply{Code: uint32(r.ID % 200), Text: r.Addr}
	})
	_, _, cli := testSetup(t, h)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				id := uint64(w*1000 + i)
				addr := string(bytes.Repeat([]byte{'a' + byte(w)}, 1+(i*37)%900))
				_, err := cli.Call(context.Background(), &wire.Register{ID: id, Addr: addr})
				var er *wire.ErrorReply
				if !errors.As(err, &er) {
					t.Errorf("worker %d call %d: %v", w, i, err)
					return
				}
				if uint64(er.Code) != id%200 || er.Text != addr {
					t.Errorf("worker %d call %d: echo corrupted (code %d, %d-byte text)",
						w, i, er.Code, len(er.Text))
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestDecodedMessageDoesNotAliasFrameBuffer pins the invariant buffer
// recycling depends on: wire.Decoder.Bytes16 aliases its input, so message
// decoders must copy (e.g. via String conversion) before the frame reader's
// buffer is reused. Scribbling over the buffer after decode must not change
// the message.
func TestDecodedMessageDoesNotAliasFrameBuffer(t *testing.T) {
	const text = "partition tolerated; degraded collect"
	frame := appendFrame(nil, frameHeader{id: 7, kind: kindResponse},
		&wire.ErrorReply{Code: wire.CodeInternal, Text: text}, nil)
	fr := frameReader{r: bytes.NewReader(frame)}
	_, body, err := fr.next()
	if err != nil {
		t.Fatal(err)
	}
	m, err := wire.DecodeWith(body, &wire.DecodeOpts{Version: wire.CodecV2})
	if err != nil {
		t.Fatal(err)
	}
	for i := range fr.buf {
		fr.buf[i] = 0xFF // simulate the pooled buffer being reused
	}
	er, ok := m.(*wire.ErrorReply)
	if !ok {
		t.Fatalf("decoded %T", m)
	}
	if er.Text != text {
		t.Fatalf("message aliases recycled frame buffer: %q", er.Text)
	}
}

// TestReconnectingGoFailsFastWhileDown checks the async path keeps the
// reconnect wrapper's fail-fast contract, and that NoteError after a harvest
// kicks the redial.
func TestReconnectingGoFailsFastWhileDown(t *testing.T) {
	n := simnet.New(simnet.Config{PropDelay: -1})
	srv, err := Serve(n.Host("server"), ":0", &echoHandler{}, ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr().String()
	rc, err := DialReconnecting(context.Background(), n.Host("client"), addr, DialOptions{},
		ReconnectPolicy{BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()

	ctx := context.Background()
	if _, err := rc.Go(ctx, &wire.Heartbeat{}).Wait(ctx); err != nil {
		t.Fatalf("Go over live connection: %v", err)
	}

	srv.Close()
	// Harvest errors until NoteError notices the dead connection.
	deadline := time.Now().Add(5 * time.Second)
	for rc.Connected() && time.Now().Before(deadline) {
		cctx, cancel := context.WithTimeout(ctx, 50*time.Millisecond)
		_, err := rc.Go(cctx, &wire.Heartbeat{}).Wait(cctx)
		rc.NoteError(cctx, err)
		cancel()
	}
	if rc.Connected() {
		t.Fatal("NoteError never detached the dead connection")
	}
	if _, err := rc.Go(ctx, &wire.Heartbeat{}).Wait(ctx); !errors.Is(err, ErrDisconnected) {
		t.Fatalf("Go while down = %v, want ErrDisconnected", err)
	}

	// A new server at the same address: the redial must restore service.
	srv2, err := Serve(n.Host("server"), addr, &echoHandler{}, ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	deadline = time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if _, err := rc.Go(ctx, &wire.Heartbeat{}).Wait(ctx); err == nil {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("async calls never recovered after redial")
}

// TestCallHandlesRecycled verifies Wait actually returns handles to the
// pool: a long sequential run must reuse a small set of handles rather than
// allocating one per call. (The pool gives no hard guarantee, but in a quiet
// single-goroutine loop reuse is deterministic enough to assert loosely.)
func TestCallHandlesRecycled(t *testing.T) {
	_, _, cli := testSetup(t, &echoHandler{})
	ctx := context.Background()
	seen := make(map[*Call]struct{})
	const calls = 200
	for i := 0; i < calls; i++ {
		call := cli.Go(ctx, &wire.Heartbeat{SentUnixMicros: int64(i)})
		seen[call] = struct{}{}
		if _, err := call.Wait(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if len(seen) > calls/2 {
		t.Errorf("%d distinct handles across %d sequential calls; pool recycling looks broken", len(seen), calls)
	}
}

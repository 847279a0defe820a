package rpc

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"github.com/dsrhaslab/sdscale/internal/transport/simnet"
	"github.com/dsrhaslab/sdscale/internal/wire"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// A response with no waiting call must be dropped and counted, not crash
// the client's reader or leak. Simulated with a hand-rolled server that answers
// the same request twice.
func TestLateResponseCounted(t *testing.T) {
	n := simnet.New(simnet.Config{PropDelay: -1})
	l, err := n.Host("server").Listen(":0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		var fr frameLog
		h, _, err := fr.next(conn)
		if err != nil {
			return
		}
		hist := wire.NewFloatHistory()
		buf := appendFrame(nil, frameHeader{id: h.id, kind: kindResponse}, &wire.HeartbeatAck{}, hist)
		buf = appendFrame(buf, frameHeader{id: h.id, kind: kindResponse}, &wire.HeartbeatAck{}, hist)
		conn.Write(buf)
		fr.next(conn) // hold the conn open until the client closes
	}()

	cli, err := Dial(context.Background(), n.Host("client"), l.Addr().String(), DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if _, err := cli.Call(context.Background(), &wire.Heartbeat{}); err != nil {
		t.Fatalf("Call: %v", err)
	}
	waitFor(t, "duplicate response to be counted", func() bool {
		return cli.late.Load() == 1
	})
}

// Concurrent calls, connection death, and Close must not race (run with
// -race) or deadlock; every call must return.
func TestClientLifecycleRace(t *testing.T) {
	n := simnet.New(simnet.Config{PropDelay: -1})
	srv, err := Serve(n.Host("server"), ":0", &echoHandler{}, ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cli, err := Dial(context.Background(), n.Host("client"), srv.Addr().String(), DialOptions{})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
				_, _ = cli.Call(ctx, &wire.Heartbeat{SentUnixMicros: int64(g*1000 + i)})
				cancel()
				cli.Err()
				cli.late.Load()
			}
		}(g)
	}
	wg.Add(2)
	go func() {
		defer wg.Done()
		time.Sleep(5 * time.Millisecond)
		srv.Close() // kill the connection under the in-flight calls
	}()
	go func() {
		defer wg.Done()
		time.Sleep(8 * time.Millisecond)
		cli.Close()
	}()

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("lifecycle race test deadlocked")
	}
}

// TestDeadClientFailsFast: once its connection dies, a client fails every
// call at once with ErrDisconnected, without encoding a broadcast frame, and
// it never comes back: a redial is a new client.
func TestDeadClientFailsFast(t *testing.T) {
	n := simnet.New(simnet.Config{PropDelay: -1})
	srv, err := Serve(n.Host("server"), ":0", &echoHandler{}, ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr().String()
	cli, err := Dial(context.Background(), n.Host("client"), addr, DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if _, err := cli.Call(context.Background(), &wire.Heartbeat{}); err != nil {
		t.Fatalf("Call: %v", err)
	}

	srv.Close()
	waitFor(t, "the connection to die", func() bool { return cli.Err() != nil })
	if err := cli.Err(); !errors.Is(err, ErrDisconnected) {
		t.Fatalf("Err = %v, want ErrDisconnected", err)
	}
	srv2, err := Serve(n.Host("server"), addr, &echoHandler{}, ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()

	// A cancelled context: Wait returns the outcome only of a call that has
	// already completed.
	done, cancel := context.WithCancel(context.Background())
	cancel()
	f := NewSharedFrame(&wire.Heartbeat{SentUnixMicros: 5})
	for name, call := range map[string]*Call{
		"Go":       cli.Go(context.Background(), &wire.Heartbeat{}),
		"GoShared": cli.GoShared(context.Background(), f),
	} {
		if _, err := call.Wait(done); !errors.Is(err, ErrDisconnected) {
			t.Errorf("%s on the dead client = %v, want ErrDisconnected at once", name, err)
		}
	}
	if enc := f.Encodes(); enc != 0 {
		t.Errorf("Encodes = %d, want 0", enc)
	}
	f.Release()
}

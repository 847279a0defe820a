package rpc

import (
	"context"
	"testing"
	"time"

	"github.com/dsrhaslab/sdscale/internal/trace"
	"github.com/dsrhaslab/sdscale/internal/transport/simnet"
	"github.com/dsrhaslab/sdscale/internal/wire"
)

// tracedSetup builds a simnet with the given config, a traced server, and a
// traced client with span tag childTag.
func tracedSetup(t *testing.T, cfg simnet.Config, childTag uint64) (*trace.Tracer, *trace.Tracer, *Client) {
	t.Helper()
	clientTr := trace.New(1024)
	serverTr := trace.New(1024)
	n := simnet.New(cfg)
	srv, err := Serve(n.Host("server"), ":0", &echoHandler{}, ServerOptions{Tracer: serverTr})
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	t.Cleanup(func() { srv.Close() })
	cli, err := Dial(context.Background(), n.Host("client"), srv.Addr().String(),
		DialOptions{Tracer: clientTr, SpanTag: childTag})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	t.Cleanup(func() { cli.Close() })
	return clientTr, serverTr, cli
}

// waitSpans polls until tr holds at least n spans of the given kind (spans
// are recorded on the client's reader and the server's, which may run on a
// pump, racing the caller's return).
func waitSpans(t *testing.T, tr *trace.Tracer, kind trace.Kind, n int) []trace.Span {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		var got []trace.Span
		for _, s := range tr.Snapshot() {
			if s.Kind == kind {
				got = append(got, s)
			}
		}
		if len(got) >= n {
			return got
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %d %v spans, have %d", n, kind, len(got))
		}
		time.Sleep(time.Millisecond)
	}
}

func TestTracedCallSpans(t *testing.T) {
	t.Run("inline", func(t *testing.T) {
		clientTr, serverTr, cli := tracedSetup(t, simnet.Config{PropDelay: -1}, 42)
		clientTr.SetContext(7, 3, 1, trace.PhaseCollect)

		if _, err := cli.Call(context.Background(), &wire.Collect{Cycle: 7}); err != nil {
			t.Fatalf("Call: %v", err)
		}

		cs := waitSpans(t, clientTr, trace.KindCall, 1)[0]
		if cs.Tag != 42 || cs.Cycle != 7 || cs.Epoch != 3 || cs.Mode != 1 || cs.Phase != trace.PhaseCollect {
			t.Fatalf("client span context: %+v", cs)
		}
		if cs.Err() || cs.Abandoned() {
			t.Fatalf("client span flagged: %+v", cs)
		}
		if cs.Dur <= 0 || cs.Dur < cs.PartA+cs.PartB {
			t.Fatalf("client span timings inconsistent: %+v", cs)
		}

		ss := waitSpans(t, serverTr, trace.KindServer, 1)[0]
		// The server tags the peer's remote address; the client's local address
		// is the same endpoint, correlating the two spans.
		if want := trace.AddrTag(cli.conn.LocalAddr().String()); ss.Tag != want {
			t.Fatalf("server span tag %d, want %d", ss.Tag, want)
		}
		if ss.Call != cs.Call {
			t.Fatalf("frame id mismatch: client %d, server %d", cs.Call, ss.Call)
		}
		if ss.Dur < ss.PartA+ss.PartB {
			t.Fatalf("server span timings inconsistent: %+v", ss)
		}
	})
}

// TestTracedWireSplit checks that simnet's deterministic latency shows up as
// in-flight time (client dur minus local work minus server busy time), not
// as server handler time: with PropDelay = 20ms and an idle connection, the
// client span's in-flight share must cover the two one-way hops while the
// server's handler time stays far below one hop.
func TestTracedWireSplit(t *testing.T) {
	const hop = 20 * time.Millisecond
	clientTr, serverTr, cli := tracedSetup(t, simnet.Config{PropDelay: hop}, 1)

	if _, err := cli.Call(context.Background(), &wire.Heartbeat{SentUnixMicros: 1}); err != nil {
		t.Fatalf("Call: %v", err)
	}

	cs := waitSpans(t, clientTr, trace.KindCall, 1)[0]
	ss := waitSpans(t, serverTr, trace.KindServer, 1)[0]

	inFlight := cs.Dur - cs.PartA - cs.PartB - ss.Dur
	if inFlight < 2*hop-hop/2 {
		t.Fatalf("in-flight %v, want >= ~%v (two %v hops)\nclient %+v\nserver %+v",
			inFlight, 2*hop, hop, cs, ss)
	}
	if ss.PartA > hop/2 {
		t.Fatalf("server handler time %v absorbed wire latency (hop %v)", ss.PartA, hop)
	}

	tot := clientTr.Totals()
	if tot.ClientCalls != 1 || tot.ClientDur != cs.Dur {
		t.Fatalf("client totals: %+v", tot)
	}
	if st := serverTr.Totals(); st.ServerCalls != 1 || st.ServerHandler != ss.PartA {
		t.Fatalf("server totals: %+v", st)
	}
}

func TestTracedAbandonedCall(t *testing.T) {
	clientTr := trace.New(1024)
	n := simnet.New(simnet.Config{PropDelay: -1})
	stall := make(chan struct{})
	slow := HandlerFunc(func(peer *Peer, req wire.Message) (wire.Message, error) {
		<-stall
		return &wire.CollectReply{}, nil
	})
	srv, err := Serve(n.Host("server"), ":0", slow, ServerOptions{})
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	defer srv.Close()
	defer close(stall)
	cli, err := Dial(context.Background(), n.Host("client"), srv.Addr().String(),
		DialOptions{Tracer: clientTr, SpanTag: 9})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cli.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := cli.Call(ctx, &wire.Collect{Cycle: 1}); err == nil {
		t.Fatal("call against stalled handler succeeded")
	}

	s := waitSpans(t, clientTr, trace.KindCall, 1)[0]
	if !s.Abandoned() || !s.Err() {
		t.Fatalf("abandoned span flags: %+v", s)
	}
	if s.Tag != 9 {
		t.Fatalf("abandoned span tag: %+v", s)
	}
	if got := clientTr.Totals(); got.Abandoned != 1 || got.ClientErrors != 1 {
		t.Fatalf("totals: %+v", got)
	}
}

// TestSampledClientAndServer checks frame-ID sampling end to end: every call
// is counted on both sides, but only the 1-in-N on the sample grid are timed
// and recorded as spans — and both sides pick the same calls. A server span
// is its handler time plus its response-write time, each measured.
func TestSampledClientAndServer(t *testing.T) {
	t.Run("inline", func(t *testing.T) {
		clientTr, serverTr := trace.New(1024), trace.New(1024)
		clientTr.SetSampleEvery(4)
		serverTr.SetSampleEvery(4)
		_, cli := codecSetup(t, &echoHandler{}, ServerOptions{Tracer: serverTr}, DialOptions{Tracer: clientTr, SpanTag: 7})

		const calls = 8 // frame IDs 1..8: IDs 4 and 8 are on the grid
		for i := 0; i < calls; i++ {
			if _, err := cli.Call(context.Background(), &wire.Heartbeat{SentUnixMicros: 1}); err != nil {
				t.Fatalf("Call %d: %v", i, err)
			}
		}

		spans := waitSpans(t, clientTr, trace.KindCall, 2)
		if len(spans) != 2 {
			t.Fatalf("client spans = %d, want 2", len(spans))
		}
		for _, s := range spans {
			if s.Call%4 != 0 {
				t.Fatalf("client sampled off-grid frame ID: %+v", s)
			}
			if s.Dur <= 0 {
				t.Fatalf("sampled client span not timed: %+v", s)
			}
		}
		srvSpans := waitSpans(t, serverTr, trace.KindServer, 2)
		if len(srvSpans) != 2 {
			t.Fatalf("server spans = %d, want 2", len(srvSpans))
		}
		for _, s := range srvSpans {
			if s.Call%4 != 0 {
				t.Fatalf("server sampled off-grid frame ID: %+v", s)
			}
			if s.PartA <= 0 || s.PartB <= 0 || s.Dur != s.PartA+s.PartB {
				t.Fatalf("server span: handler %v write %v of %v, want both > 0 and summing to the span",
					s.PartA, s.PartB, s.Dur)
			}
		}

		ct := clientTr.Totals()
		if ct.ClientCalls != calls || ct.ClientSampled != 2 {
			t.Fatalf("client totals: %+v", ct)
		}
		// Server counts drain after the response is written; totals may trail
		// the last response briefly.
		deadline := time.Now().Add(5 * time.Second)
		for {
			st := serverTr.Totals()
			if st.ServerCalls == calls && st.ServerSampled == 2 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("server totals: %+v", st)
			}
			time.Sleep(time.Millisecond)
		}
	})
}

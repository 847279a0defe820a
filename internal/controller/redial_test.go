package controller

import (
	"context"
	"fmt"
	"net"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"github.com/dsrhaslab/sdscale/internal/stage"
	"github.com/dsrhaslab/sdscale/internal/trace"
	"github.com/dsrhaslab/sdscale/internal/transport"
	"github.com/dsrhaslab/sdscale/internal/wire"
)

// A lost child has one way back: the pre-cycle sweep redials it, and the
// breaker's half-open probe, the only retry clock, dials a quarantined one
// before its heartbeat. These tests run a flat fleet of redialFleet stages
// on an untimed simnet.

const redialFleet = 200

// counters reads every stage's collect and enforce counts.
func counters(stages []*stage.Virtual) (collects, enforces []uint64) {
	collects = make([]uint64, len(stages))
	enforces = make([]uint64, len(stages))
	for i, v := range stages {
		collects[i], enforces[i] = v.Counters()
	}
	return collects, enforces
}

// quietGoroutines returns the process's goroutine count once it has stopped
// falling: a worker that has done its work may take a moment to exit.
func quietGoroutines() int {
	n := runtime.NumGoroutine()
	for i := 0; i < 100; i++ {
		time.Sleep(time.Millisecond)
		m := runtime.NumGoroutine()
		if m >= n {
			return m
		}
		n = m
	}
	return n
}

// settleGoroutines waits up to two seconds for the process to run at most
// want goroutines and returns how many it runs then.
func settleGoroutines(want int) int {
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > want && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	return runtime.NumGoroutine()
}

// TestRedialAfterKillConns: connections that die between two cycles are
// replaced by the next cycle's sweep before it sends anything, so that
// cycle fails no call and serves every stage.
func TestRedialAfterKillConns(t *testing.T) {
	n := fastNet()
	stages := startStages(t, n, redialFleet, 4, wire.Rates{100, 10})
	g := buildFlat(t, n, stages, GlobalConfig{Capacity: wire.Rates{1e9, 1e9}})
	ctx := context.Background()
	if _, err := g.RunCycle(ctx); err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 20; i++ {
		n.Host(fmt.Sprintf("stage-%d", 10*i+1)).KillConns()
	}
	collects, enforces := counters(stages)
	errsBefore := g.Stats().CallErrors
	if _, err := g.RunCycle(ctx); err != nil {
		t.Fatal(err)
	}
	st := g.Stats()
	if d := st.CallErrors - errsBefore; d != 0 || st.Quarantined != 0 {
		t.Errorf("cycle after 20 killed connections: %d failed calls, %d quarantined, want 0 and 0", d, st.Quarantined)
	}
	after, afterEnf := counters(stages)
	for i := range stages {
		if after[i] != collects[i]+1 || afterEnf[i] != enforces[i]+1 {
			t.Errorf("stage %d served %d collects and %d enforces in the cycle, want 1 and 1",
				i+1, after[i]-collects[i], afterEnf[i]-enforces[i])
		}
	}
}

// TestRedialPartitionAddsNoGoroutinePerChild: a partitioned child costs no
// goroutine of its own while it is down, however many are lost, and once
// the partition heals each is readmitted by its first due probe, which
// dials before it heartbeats.
func TestRedialPartitionAddsNoGoroutinePerChild(t *testing.T) {
	const lost, maxAdded = 40, 4
	n := fastNet()
	stages := startStages(t, n, redialFleet, 4, wire.Rates{100, 10})
	g := buildFlat(t, n, stages, GlobalConfig{
		Capacity:      wire.Rates{1e9, 1e9},
		ProbeInterval: 2 * time.Millisecond, MaxProbeInterval: 10 * time.Millisecond,
	})
	ctx := context.Background()
	cycle := func() {
		t.Helper()
		if _, err := g.RunCycle(ctx); err != nil {
			t.Fatal(err)
		}
	}
	cycle()
	base := quietGoroutines()

	for i := 0; i < lost; i++ {
		n.Host(fmt.Sprintf("stage-%d", 5*i+1)).SetPartitioned(true)
	}
	for i := 0; i < DefaultMaxFailures+2; i++ {
		cycle()
	}
	if q := g.Stats().Quarantined; q != lost {
		t.Fatalf("%d children quarantined after %d cycles, want %d", q, DefaultMaxFailures+2, lost)
	}
	if added := settleGoroutines(base+maxAdded) - base; added > maxAdded {
		t.Errorf("%d lost children added %d goroutines, want at most %d", lost, added, maxAdded)
	}

	for i := 0; i < lost; i++ {
		n.Host(fmt.Sprintf("stage-%d", 5*i+1)).SetPartitioned(false)
	}
	faults := g.Faults()
	failedBefore, readmittedBefore := faults.ProbeFailures(), faults.Readmissions()
	for deadline := time.Now().Add(5 * time.Second); g.Stats().Quarantined > 0; {
		if time.Now().After(deadline) {
			t.Fatalf("%d children still quarantined after the heal", g.Stats().Quarantined)
		}
		time.Sleep(time.Millisecond)
		cycle()
	}
	if d := faults.ProbeFailures() - failedBefore; d != 0 {
		t.Errorf("%d probes failed after the heal, want 0: each child's first due probe readmits it", d)
	}
	if d := faults.Readmissions() - readmittedBefore; d != lost {
		t.Errorf("%d readmissions after the heal, want %d", d, lost)
	}
}

// gatedNet holds each dial made while it is armed until release is closed.
type gatedNet struct {
	transport.Network
	armed   atomic.Bool
	held    atomic.Int32
	release chan struct{}
}

func (g *gatedNet) Dial(ctx context.Context, addr string) (net.Conn, error) {
	if g.armed.Load() {
		g.held.Add(1)
		<-g.release
	}
	return g.Network.Dial(ctx, addr)
}

// TestRedialCloseDuringSweepLeaksNothing: a controller closed while its
// sweep is redialing closes each connection the sweep dials afterwards
// instead of installing it, and leaves no goroutine behind.
func TestRedialCloseDuringSweepLeaksNothing(t *testing.T) {
	n := fastNet()
	stages := startStages(t, n, redialFleet, 4, wire.Rates{100, 10})
	host := n.Host("global")
	gate := &gatedNet{Network: host, release: make(chan struct{})}
	g, err := StartGlobal(GlobalConfig{Network: gate, Capacity: wire.Rates{1e9, 1e9}})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, v := range stages {
		if err := g.AddStage(ctx, v.Info()); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := g.RunCycle(ctx); err != nil {
		t.Fatal(err)
	}
	base := quietGoroutines()

	for i := 0; i < 20; i++ {
		n.Host(fmt.Sprintf("stage-%d", 10*i+1)).KillConns()
	}
	gate.armed.Store(true)
	done := make(chan struct{})
	go func() {
		defer close(done)
		g.RunCycle(ctx)
	}()
	for deadline := time.Now().Add(5 * time.Second); gate.held.Load() == 0; {
		if time.Now().After(deadline) {
			t.Fatal("the cycle never redialed")
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)
	select {
	case <-done:
		t.Fatal("the cycle finished while its sweep's dials were held: it does not redial before it sends")
	default:
	}

	g.Close()
	close(gate.release)
	<-done
	if c := host.ConnCount(); c != 0 {
		t.Errorf("the closed controller holds %d connections, want 0", c)
	}
	if added := settleGoroutines(base) - base; added > 0 {
		t.Errorf("%d goroutines left behind by the closed controller", added)
	}
}

// TestRedialKeepsSpanTag: a redialed connection records its calls under the
// child's ID, as the one it replaced did.
func TestRedialKeepsSpanTag(t *testing.T) {
	tr := trace.New(4096)
	n := fastNet()
	stages := startStages(t, n, 6, 2, wire.Rates{100, 10})
	g := buildFlat(t, n, stages, GlobalConfig{Capacity: wire.Rates{1e9, 1e9}, Tracer: tr})
	ctx := context.Background()
	if _, err := g.RunCycle(ctx); err != nil {
		t.Fatal(err)
	}
	n.Host("stage-3").KillConns()
	if _, err := g.RunCycle(ctx); err != nil {
		t.Fatal(err)
	}
	var calls int
	for _, s := range tr.Snapshot() {
		if s.Kind == trace.KindCall && s.Cycle == 2 && s.Tag == 3 {
			calls++
			if s.Err() || s.Abandoned() {
				t.Errorf("stage 3's call in cycle 2 failed: %+v", s)
			}
		}
	}
	if calls != 2 {
		t.Errorf("cycle 2 recorded %d calls tagged with stage 3, want 2 (collect and enforce)", calls)
	}
}

// TestRedialDeadFellow: a peer whose connection to a fellow died redials it
// in the next exchange, so the fellow still receives that cycle's
// aggregates.
func TestRedialDeadFellow(t *testing.T) {
	n := fastNet()
	stages := startStages(t, n, 4, 2, wire.Rates{100, 10})
	peers := buildPeers(t, n, stages, 2, wire.Rates{1e9, 1e9})
	p, q := peers[0], peers[1]
	ctx := context.Background()
	if _, err := p.RunCycle(ctx); err != nil {
		t.Fatal(err)
	}
	n.Host("peer-2").KillConns()
	// The exchange is fire-and-forget and redials only a client that
	// already reports an error: a push on a death not yet delivered to
	// peer 1's client is lost by design, so wait for the delivery.
	p.mu.Lock()
	toQ := p.fellows[q.ID()]
	p.mu.Unlock()
	detachClient(t, toQ)
	if _, err := p.RunCycle(ctx); err != nil {
		t.Fatal(err)
	}
	q.mu.Lock()
	got := q.remote[p.ID()].cycle
	q.mu.Unlock()
	if got != 2 {
		t.Errorf("peer 2 holds peer 1's aggregates of cycle %d, want 2", got)
	}
}

package stage

import (
	"context"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/dsrhaslab/sdscale/internal/rpc"
	"github.com/dsrhaslab/sdscale/internal/transport"
	"github.com/dsrhaslab/sdscale/internal/transport/simnet"
	"github.com/dsrhaslab/sdscale/internal/wire"
	"github.com/dsrhaslab/sdscale/internal/workload"
)

// goroutinesIn counts the goroutines whose stack traces contain text, such
// as a frame as it prints there ("stage.(*Virtual).registerParents(").
func goroutinesIn(text string) int {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	count := 0
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, text) {
			count++
		}
	}
	return count
}

// wheelLoop names the wheel's goroutine, started or not yet: one not yet
// scheduled shows only the wrapper of its go statement.
const wheelLoop = "created by github.com/dsrhaslab/sdscale/internal/stage.(*wheel).join"

// tapNet wraps a network so that every connection its listeners accept
// counts its write attempts and holds each write until gate is closed (or
// the connection is): with gate open it is a plain counting tap, with gate
// shut it is a parent that has stopped reading. Its listeners hide the
// handoff, so the server accepts through its accept loop.
type tapNet struct {
	transport.Network
	gate   chan struct{}
	writes *atomic.Int64
}

func newTapNet(host transport.Network, open bool) tapNet {
	n := tapNet{Network: host, gate: make(chan struct{}), writes: new(atomic.Int64)}
	if open {
		close(n.gate)
	}
	return n
}

func (n tapNet) Listen(addr string) (net.Listener, error) {
	l, err := n.Network.Listen(addr)
	if err != nil {
		return nil, err
	}
	return tapListener{Listener: l, net: n}, nil
}

type tapListener struct {
	net.Listener
	net tapNet
}

func (l tapListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &tapConn{Conn: c, net: l.net, closed: make(chan struct{})}, nil
}

type tapConn struct {
	net.Conn
	net    tapNet
	once   sync.Once
	closed chan struct{}
}

func (c *tapConn) Write(p []byte) (int, error) {
	c.net.writes.Add(1)
	select {
	case <-c.net.gate:
	case <-c.closed:
		return 0, net.ErrClosed
	}
	return c.Conn.Write(p)
}

func (c *tapConn) Close() error {
	c.once.Do(func() { close(c.closed) })
	return c.Conn.Close()
}

// startPushing starts a stage that pushes on every wheel tick, every
// millisecond.
func startPushing(t *testing.T, id uint64, network transport.Network) *Virtual {
	t.Helper()
	v, err := StartVirtual(Config{
		ID:            id,
		Generator:     workload.Constant{Rates: wire.Rates{500, 50}},
		Network:       network,
		PushThreshold: 0.01,
		PushInterval:  time.Millisecond,
		PushFloor:     time.Millisecond, // every tick pushes
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { v.Close() })
	return v
}

// countPushes connects a parent to the stage at addr and counts the pushes
// it receives.
func countPushes(t *testing.T, n *simnet.Net, addr string) *atomic.Int64 {
	t.Helper()
	got := new(atomic.Int64)
	cli, err := rpc.Dial(context.Background(), n.Host("controller"), addr, rpc.DialOptions{
		OnPush: func(wire.Message) { got.Add(1) },
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Close() })
	return got
}

// registrar starts a parent that acknowledges every registration and
// counts them.
func registrar(t *testing.T, n *simnet.Net) (string, *atomic.Int64) {
	t.Helper()
	got := new(atomic.Int64)
	parent, err := rpc.Serve(n.Host("parent"), ":0", rpc.HandlerFunc(
		func(p *rpc.Peer, req wire.Message) (wire.Message, error) {
			got.Add(1)
			return &wire.RegisterAck{ID: req.(*wire.Register).ID}, nil
		}), rpc.ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { parent.Close() })
	return parent.Addr().String(), got
}

// TestWheelIsolatesBlockedPush: a stage whose parent stopped reading holds
// its own push, and skips its own ticks, but every other stage keeps
// pushing and keeps its parent watchdog running. A wheel that wrote pushes
// on its own goroutine would stall them all behind the one write.
func TestWheelIsolatesBlockedPush(t *testing.T) {
	n := fastNet()
	tap := newTapNet(n.Host("stuck"), false)
	stuck := startPushing(t, 1, tap)
	stuckGot := countPushes(t, n, stuck.Info().Addr)
	waitFor(t, "the stuck stage's push to block on its write", func() bool {
		return tap.writes.Load() > 0 && stuck.pusher.sending.Load()
	})
	// The stuck stage's ticks skip while its push is in flight, so its
	// decision state holds still.
	seq := stuck.pusher.seq

	free := startPushing(t, 2, n.Host("free"))
	freeGot := countPushes(t, n, free.Info().Addr)

	addr, _ := registrar(t, n)
	orphan, err := StartVirtual(Config{ID: 3, Network: n.Host("orphan"), Parents: []string{addr}, ParentTimeout: 8 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer orphan.Close()

	waitFor(t, "the free stage's pushes to keep arriving", func() bool { return freeGot.Load() >= 50 })
	waitFor(t, "the orphan's watchdog to keep re-homing", func() bool { return orphan.ReRegistrations() >= 3 })
	if w, s := tap.writes.Load(), stuck.pusher.seq; w != 1 || s != seq {
		t.Errorf("the stuck stage attempted %d writes and moved seq %d → %d, want 1 and none: a stage with a push in flight skips its ticks", w, seq, s)
	}
	if got := stuck.Pushes(); got != 0 {
		t.Errorf("the stuck stage counted %d pushes while its write was blocked", got)
	}

	close(tap.gate)
	waitFor(t, "the stuck stage's pushes to resume", func() bool { return stuckGot.Load() >= 5 })
}

// blockingGen is a generator whose first Demand call blocks until release
// is closed, holding the tick that made it in progress.
type blockingGen struct {
	entered, release chan struct{}
	once             sync.Once
}

func (g *blockingGen) Demand(time.Duration) wire.Rates {
	g.once.Do(func() {
		close(g.entered)
		<-g.release
	})
	return wire.Rates{500, 50}
}

// TestCloseWaitsForTickAndRegistration: Close returns only after the
// stage's tick in progress has finished, and after its registration in
// progress — canceled by Close — has ended.
func TestCloseWaitsForTickAndRegistration(t *testing.T) {
	n := fastNet()
	// A parent that never answers a registration.
	registering := make(chan struct{})
	var once sync.Once
	hold := make(chan struct{})
	defer close(hold)
	parent, err := rpc.Serve(n.Host("parent"), ":0", rpc.HandlerFunc(
		func(p *rpc.Peer, req wire.Message) (wire.Message, error) {
			once.Do(func() { close(registering) })
			<-hold
			return nil, context.Canceled
		}), rpc.ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer parent.Close()

	gen := &blockingGen{entered: make(chan struct{}), release: make(chan struct{})}
	v, err := StartVirtual(Config{
		ID: 1, Generator: gen, Network: n.Host("s"),
		Parents:       []string{parent.Addr().String()},
		PushThreshold: 0.01, PushInterval: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	release := sync.OnceFunc(func() { close(gen.release) })
	defer v.Close()
	defer release() // a blocked tick would stall the wheel for later tests
	<-registering
	<-gen.entered
	if goroutinesIn("stage.(*Virtual).registerParents(") != 1 {
		t.Fatal("no registration in progress")
	}

	closed := make(chan struct{})
	go func() {
		v.Close()
		close(closed)
	}()
	select {
	case <-closed:
		t.Fatal("Close returned while the stage's tick was running")
	case <-time.After(20 * time.Millisecond):
	}
	release()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return after the tick finished")
	}
	if goroutinesIn("stage.(*Virtual).registerParents(") != 0 {
		t.Error("a registration is still running after Close returned")
	}
}

// TestNoPushAfterClose: once Close returns, the stage attempts no write:
// no tick decides a push and no push decided earlier is still in flight.
func TestNoPushAfterClose(t *testing.T) {
	n := fastNet()
	tap := newTapNet(n.Host("s"), true)
	v := startPushing(t, 1, tap)
	got := countPushes(t, n, v.Info().Addr)
	waitFor(t, "pushes to arrive", func() bool { return got.Load() >= 10 })
	v.Close()
	writes := tap.writes.Load()
	time.Sleep(20 * time.Millisecond) // twenty push intervals
	if w := tap.writes.Load(); w != writes {
		t.Errorf("the stage attempted %d writes after Close returned", w-writes)
	}
}

// TestWheelExitsWhenIdle: the wheel's goroutine starts with the first
// pushing or parented stage and exits when the last one closes; a stage
// with neither never starts it.
func TestWheelExitsWhenIdle(t *testing.T) {
	waitFor(t, "no wheel before the test", func() bool { return goroutinesIn(wheelLoop) == 0 })
	n := fastNet()
	plain, err := StartVirtual(Config{ID: 1, Network: n.Host("plain")})
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	if g := goroutinesIn(wheelLoop); g != 0 {
		t.Fatalf("%d wheel goroutines with no pushing or parented stage, want 0", g)
	}

	addr, _ := registrar(t, n)
	for round := 0; round < 2; round++ {
		pushing, err := StartVirtual(Config{ID: 2, Network: n.Host("pushing"), PushThreshold: 0.05, PushInterval: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { pushing.Close() })
		parented, err := StartVirtual(Config{ID: 3, Network: n.Host("parented"), Parents: []string{addr}, ParentTimeout: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { parented.Close() })
		if g := goroutinesIn(wheelLoop); g != 1 {
			t.Fatalf("round %d: %d wheel goroutines, want 1", round, g)
		}
		pushing.Close()
		if g := goroutinesIn(wheelLoop); g != 1 {
			t.Fatalf("round %d: %d wheel goroutines with one stage left, want 1", round, g)
		}
		parented.Close()
		waitFor(t, "the wheel to exit", func() bool { return goroutinesIn(wheelLoop) == 0 })
	}
}

// TestQuiescedTickAllocatesNothing: a push decision that finds nothing to
// push takes no allocation. A 10,000-stage fleet runs 100,000 of them a
// second at the default interval.
func TestQuiescedTickAllocatesNothing(t *testing.T) {
	v, err := StartVirtual(Config{
		ID: 1, Generator: workload.Constant{Rates: wire.Rates{500, 50}}, Network: fastNet().Host("s"),
		PushThreshold: 0.05, PushInterval: time.Hour, PushFloor: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	p := v.pusher
	stageWheel.leave(&p.task) // this test ticks it by hand
	p.tick()                  // the first decision pushes the baseline
	waitFor(t, "the baseline push to land", func() bool { return !p.sending.Load() })
	if allocs := testing.AllocsPerRun(100, p.tick); allocs != 0 {
		t.Errorf("a quiesced tick allocates %.1f times, want 0", allocs)
	}
	if p.seq != 1 {
		t.Errorf("seq = %d after the quiesced ticks, want 1: only the baseline pushes", p.seq)
	}
}

// firstSample is a generator that records when it was first sampled.
type firstSample struct{ at atomic.Int64 }

func (g *firstSample) Demand(time.Duration) wire.Rates {
	g.at.CompareAndSwap(0, time.Now().UnixNano())
	return wire.Rates{500, 50}
}

// TestWheelSpreadsPhases: a thousand stages on one interval take their
// first samples spread across the interval after their first by stage ID,
// not in one wave one interval after they start; none samples sooner.
func TestWheelSpreadsPhases(t *testing.T) {
	const (
		stages   = 1000
		interval = 500 * time.Millisecond
		buckets  = 10
	)
	n := fastNet()
	gens := make([]firstSample, stages)
	started := make([]time.Time, stages)
	for i := range gens {
		started[i] = time.Now()
		v, err := StartVirtual(Config{
			ID: uint64(i + 1), Generator: &gens[i], Network: n.Host("s"),
			PushThreshold: 0.05, PushInterval: interval, PushFloor: time.Hour,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer v.Close()
	}
	waitFor(t, "every stage's first sample", func() bool {
		for i := range gens {
			if gens[i].at.Load() == 0 {
				return false
			}
		}
		return true
	})
	var count [buckets]int
	for i := range gens {
		off := time.Unix(0, gens[i].at.Load()).Sub(started[i]) - interval
		if off < 0 {
			t.Fatalf("stage %d sampled %v after it started, sooner than one interval", i+1, off+interval)
		}
		b := int(off * buckets / interval)
		if b >= buckets {
			b = buckets - 1 // a late wheel
		}
		count[b]++
	}
	t.Logf("first samples per tenth of the interval: %v", count)
	for b, c := range count {
		if c < stages/buckets/2 || c > 2*stages/buckets {
			t.Errorf("tenth %d of the interval holds %d first samples, want %d±50%%: %v", b, c, stages/buckets, count)
		}
	}
}

// TestPushDeltaAllocatesNothing: a push allocates neither its message nor
// anything for the walk over the stage's peers.
func TestPushDeltaAllocatesNothing(t *testing.T) {
	n := fastNet()
	v, err := StartVirtual(Config{ID: 1, Generator: workload.Constant{Rates: wire.Rates{500, 50}}, Network: n.Host("s")})
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	got := countPushes(t, n, v.Info().Addr)
	waitFor(t, "the parent's connection", func() bool { return v.PushDelta(1) })
	allocs := testing.AllocsPerRun(100, func() { v.PushDelta(1.1) })
	if allocs > 0 && !raceEnabled { // the message and the frame buffer come from sync.Pools
		t.Errorf("PushDelta allocates %.1f times, want 0", allocs)
	}
	waitFor(t, "the pushes to arrive", func() bool { return got.Load() >= 101 })
}

package stage

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"github.com/dsrhaslab/sdscale/internal/pfs"
	"github.com/dsrhaslab/sdscale/internal/rpc"
	"github.com/dsrhaslab/sdscale/internal/transport/simnet"
	"github.com/dsrhaslab/sdscale/internal/wire"
	"github.com/dsrhaslab/sdscale/internal/workload"
)

func fastNet() *simnet.Net { return simnet.New(simnet.Config{PropDelay: -1}) }

// waitFor polls cond until it holds, failing the test after five seconds.
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

// dialStage connects a test client to a stage's RPC server.
func dialStage(t *testing.T, n *simnet.Net, addr string) *rpc.Client {
	t.Helper()
	cli, err := rpc.Dial(context.Background(), n.Host("controller"), addr, rpc.DialOptions{})
	if err != nil {
		t.Fatalf("dial stage: %v", err)
	}
	t.Cleanup(func() { cli.Close() })
	return cli
}

func TestVirtualStageCollect(t *testing.T) {
	n := fastNet()
	v, err := StartVirtual(Config{
		ID: 7, JobID: 3, Weight: 2,
		Generator: workload.Constant{Rates: wire.Rates{500, 50}},
		Network:   n.Host("stage-7"),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()

	info := v.Info()
	if info.ID != 7 || info.JobID != 3 || info.Weight != 2 || info.Addr == "" {
		t.Errorf("Info = %+v", info)
	}

	cli := dialStage(t, n, info.Addr)
	resp, err := cli.Call(context.Background(), &wire.Collect{Cycle: 9})
	if err != nil {
		t.Fatalf("Collect: %v", err)
	}
	r := resp.(*wire.CollectReply)
	if r.Cycle != 9 || len(r.Reports) != 1 {
		t.Fatalf("reply = %+v", r)
	}
	rep := r.Reports[0]
	if rep.StageID != 7 || rep.JobID != 3 {
		t.Errorf("report identity = %+v", rep)
	}
	if rep.Demand != (wire.Rates{500, 50}) {
		t.Errorf("demand = %v", rep.Demand)
	}
	// No rule yet: usage mirrors demand.
	if rep.Usage != rep.Demand {
		t.Errorf("usage = %v, want = demand before any rule", rep.Usage)
	}
}

func TestVirtualStageEnforceShapesUsage(t *testing.T) {
	n := fastNet()
	v, err := StartVirtual(Config{
		ID: 1, JobID: 1,
		Generator: workload.Constant{Rates: wire.Rates{1000, 100}},
		Network:   n.Host("stage-1"),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	cli := dialStage(t, n, v.Info().Addr)

	ack, err := cli.Call(context.Background(), &wire.Enforce{Cycle: 1, Rules: []wire.Rule{
		{StageID: 1, JobID: 1, Action: wire.ActionSetLimit, Limit: wire.Rates{400, 10}},
		{StageID: 99, JobID: 1, Action: wire.ActionSetLimit, Limit: wire.Rates{1, 1}}, // not ours
	}})
	if err != nil {
		t.Fatalf("Enforce: %v", err)
	}
	if got := ack.(*wire.EnforceAck).Applied; got != 1 {
		t.Errorf("Applied = %d, want 1 (foreign rules ignored)", got)
	}
	rule, ok := v.LastRule()
	if !ok || rule.Limit != (wire.Rates{400, 10}) {
		t.Errorf("LastRule = %+v, %v", rule, ok)
	}

	resp, err := cli.Call(context.Background(), &wire.Collect{Cycle: 2})
	if err != nil {
		t.Fatal(err)
	}
	rep := resp.(*wire.CollectReply).Reports[0]
	if rep.Usage != (wire.Rates{400, 10}) {
		t.Errorf("usage after limit = %v, want {400, 10}", rep.Usage)
	}
	if rep.Demand != (wire.Rates{1000, 100}) {
		t.Errorf("demand after limit = %v, want unchanged", rep.Demand)
	}
}

func TestVirtualStagePause(t *testing.T) {
	n := fastNet()
	v, err := StartVirtual(Config{ID: 1, JobID: 1, Network: n.Host("s")})
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	cli := dialStage(t, n, v.Info().Addr)
	if _, err := cli.Call(context.Background(), &wire.Enforce{Rules: []wire.Rule{
		{StageID: 1, Action: wire.ActionPause},
	}}); err != nil {
		t.Fatal(err)
	}
	resp, _ := cli.Call(context.Background(), &wire.Collect{Cycle: 1})
	rep := resp.(*wire.CollectReply).Reports[0]
	if !rep.Usage.IsZero() {
		t.Errorf("usage while paused = %v, want zero", rep.Usage)
	}
	if rep.Demand.IsZero() {
		t.Error("demand while paused is zero, want generator demand")
	}
}

func TestVirtualStageHeartbeatAndCounters(t *testing.T) {
	n := fastNet()
	v, err := StartVirtual(Config{ID: 1, Network: n.Host("s")})
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	cli := dialStage(t, n, v.Info().Addr)

	resp, err := cli.Call(context.Background(), &wire.Heartbeat{SentUnixMicros: 5})
	if err != nil {
		t.Fatal(err)
	}
	if resp.(*wire.HeartbeatAck).EchoUnixMicros != 5 {
		t.Error("heartbeat echo mismatch")
	}

	cli.Call(context.Background(), &wire.Collect{Cycle: 1})
	cli.Call(context.Background(), &wire.Collect{Cycle: 2})
	cli.Call(context.Background(), &wire.Enforce{Rules: []wire.Rule{{StageID: 1}}})
	collects, enforces := v.Counters()
	if collects != 2 || enforces != 1 {
		t.Errorf("Counters = %d/%d, want 2/1", collects, enforces)
	}
}

func TestVirtualStageRejectsUnexpected(t *testing.T) {
	n := fastNet()
	v, err := StartVirtual(Config{ID: 1, Network: n.Host("s")})
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	cli := dialStage(t, n, v.Info().Addr)
	_, err = cli.Call(context.Background(), &wire.Register{ID: 1})
	var er *wire.ErrorReply
	if !errors.As(err, &er) {
		t.Errorf("Register on stage = %v, want remote error", err)
	}
}

func TestEnforcingStageThrottles(t *testing.T) {
	n := fastNet()
	e, err := StartEnforcing(EnforcingConfig{ID: 1, JobID: 1, Network: n.Host("s")})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	cli := dialStage(t, n, e.Info().Addr)

	// Unlimited by default.
	ctx := context.Background()
	for i := 0; i < 100; i++ {
		if err := e.Submit(ctx, wire.ClassData); err != nil {
			t.Fatalf("unlimited submit: %v", err)
		}
	}

	// Apply a tight limit and verify throughput drops.
	if _, err := cli.Call(ctx, &wire.Enforce{Rules: []wire.Rule{
		{StageID: 1, JobID: 1, Action: wire.ActionSetLimit, Limit: wire.Rates{100, 10}},
	}}); err != nil {
		t.Fatal(err)
	}
	limits, unlimited := e.Limits()
	if unlimited || limits != (wire.Rates{100, 10}) {
		t.Fatalf("Limits = %v/%v", limits, unlimited)
	}

	start := time.Now()
	// Burst capacity is ~100; pushing 150 ops must take >= ~0.4s.
	for i := 0; i < 150; i++ {
		if err := e.Submit(ctx, wire.ClassData); err != nil {
			t.Fatalf("limited submit: %v", err)
		}
	}
	if elapsed := time.Since(start); elapsed < 300*time.Millisecond {
		t.Errorf("150 ops at 100 ops/s took %v, want >= ~400ms", elapsed)
	}
}

func TestEnforcingStageReportsMeasuredRates(t *testing.T) {
	n := fastNet()
	e, err := StartEnforcing(EnforcingConfig{ID: 1, JobID: 1, Network: n.Host("s"), Window: 500 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	cli := dialStage(t, n, e.Info().Addr)

	ctx := context.Background()
	for i := 0; i < 50; i++ {
		e.Submit(ctx, wire.ClassData)
	}
	for i := 0; i < 5; i++ {
		e.Submit(ctx, wire.ClassMeta)
	}

	resp, err := cli.Call(ctx, &wire.Collect{Cycle: 1})
	if err != nil {
		t.Fatal(err)
	}
	rep := resp.(*wire.CollectReply).Reports[0]
	if rep.Demand[wire.ClassData] <= 0 || rep.Usage[wire.ClassData] <= 0 {
		t.Errorf("data rates = %v/%v, want > 0", rep.Demand[wire.ClassData], rep.Usage[wire.ClassData])
	}
	if rep.Demand[wire.ClassMeta] <= 0 {
		t.Errorf("meta demand = %v, want > 0", rep.Demand[wire.ClassMeta])
	}
	if rep.StageID != 1 || rep.JobID != 1 {
		t.Errorf("identity = %+v", rep)
	}
}

func TestEnforcingStageWithPFS(t *testing.T) {
	n := fastNet()
	fs := pfs.New(pfs.Config{OSTs: 1, OSTCapacity: 1e6, MDSCapacity: 1e6})
	e, err := StartEnforcing(EnforcingConfig{ID: 1, JobID: 42, Network: n.Host("s"), FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	ctx := context.Background()
	for i := 0; i < 10; i++ {
		if err := e.Submit(ctx, wire.ClassData); err != nil {
			t.Fatal(err)
		}
	}
	if ops := fs.ClientOps(42); ops[wire.ClassData] != 10 {
		t.Errorf("PFS saw %v ops for job 42, want 10", ops[wire.ClassData])
	}
}

func TestRegisterHelper(t *testing.T) {
	n := fastNet()
	// A fake parent that accepts registrations.
	got := make(chan *wire.Register, 1)
	parent, err := rpc.Serve(n.Host("parent"), ":0", rpc.HandlerFunc(
		func(p *rpc.Peer, req wire.Message) (wire.Message, error) {
			if m, ok := req.(*wire.Register); ok {
				got <- m
				return &wire.RegisterAck{ID: m.ID}, nil
			}
			return nil, errors.New("unexpected")
		}), rpc.ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer parent.Close()

	info := Info{ID: 5, JobID: 2, Weight: 1.5, Addr: "stage-5:40000"}
	if err := Register(context.Background(), n.Host("stage-5"), parent.Addr().String(), info); err != nil {
		t.Fatalf("Register: %v", err)
	}
	m := <-got
	if m.ID != 5 || m.JobID != 2 || m.Weight != 1.5 || m.Addr != "stage-5:40000" || m.Role != wire.RoleStage {
		t.Errorf("registered = %+v", m)
	}
}

func TestRegisterHelperErrors(t *testing.T) {
	n := fastNet()
	// No listener: dial error.
	if err := Register(context.Background(), n.Host("s"), "nowhere:1", Info{ID: 1}); err == nil {
		t.Error("Register to nowhere succeeded")
	}
	// Parent that rejects.
	parent, err := rpc.Serve(n.Host("parent"), ":0", rpc.HandlerFunc(
		func(p *rpc.Peer, req wire.Message) (wire.Message, error) {
			return nil, errors.New("rejected")
		}), rpc.ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer parent.Close()
	if err := Register(context.Background(), n.Host("s"), parent.Addr().String(), Info{ID: 1}); err == nil {
		t.Error("Register accepted despite rejection")
	}
}

// TestVirtualStagePushesWhileAnswering: a stage's server answers each
// request on the goroutine that read it, while pushes — the push loop's and
// PushDelta's — are written from other goroutines onto the same connection.
// Every frame must arrive whole and every reply must decode to the stage's
// report (the replies are delta-coded against a history a push never
// advances). Run under -race -count=10 in CI.
func TestVirtualStagePushesWhileAnswering(t *testing.T) {
	n := fastNet()
	v, err := StartVirtual(Config{
		ID: 7, JobID: 3,
		Generator:     workload.Constant{Rates: wire.Rates{500, 50}},
		Network:       n.Host("stage-7"),
		PushThreshold: 0.01,
		PushInterval:  time.Millisecond,
		PushFloor:     time.Millisecond, // every tick pushes
	})
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	var pushed atomic.Int64
	cli, err := rpc.Dial(context.Background(), n.Host("controller"), v.Info().Addr, rpc.DialOptions{
		OnPush: func(m wire.Message) {
			if d, ok := m.(*wire.ReportDelta); !ok || d.Report.StageID != 7 {
				t.Errorf("push decoded as %+v", m)
			}
			pushed.Add(1)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
				v.PushDelta(2)
			}
		}
	}()
	// Pushes need the peer registered, and the bursts below take
	// milliseconds: wait for the first push so pushes and replies provably
	// interleave.
	waitFor(t, "the first push to reach the client", func() bool { return pushed.Load() > 0 })

	ctx := context.Background()
	const bursts, perBurst = 50, 20
	var calls [2 * perBurst]*rpc.Call
	for b := 0; b < bursts; b++ {
		for i := 0; i < perBurst; i++ {
			cycle := uint64(b*perBurst + i + 1)
			calls[2*i] = cli.Go(ctx, &wire.Collect{Cycle: cycle})
			calls[2*i+1] = cli.Go(ctx, &wire.Enforce{Cycle: cycle, Rules: []wire.Rule{{StageID: 7, Action: wire.ActionNoLimit}}})
		}
		for i, call := range calls {
			cycle := uint64(b*perBurst + i/2 + 1)
			resp, err := call.Wait(ctx)
			if err != nil {
				t.Fatalf("burst %d call %d: %v", b, i, err)
			}
			switch r := resp.(type) {
			case *wire.CollectReply:
				if i%2 != 0 || r.Cycle != cycle || len(r.Reports) != 1 || r.Reports[0].Demand != (wire.Rates{500, 50}) {
					t.Fatalf("burst %d call %d: collect reply %+v", b, i, r)
				}
			case *wire.EnforceAck:
				if i%2 != 1 || r.Cycle != cycle || r.Applied != 1 {
					t.Fatalf("burst %d call %d: enforce ack %+v", b, i, r)
				}
			default:
				t.Fatalf("burst %d call %d: reply %T", b, i, resp)
			}
		}
	}
	close(stop)
	<-done
	// A push written after the last reply may not have been read yet.
	written := int64(v.Pushes())
	waitFor(t, "every push the stage counted to reach the client", func() bool { return pushed.Load() >= written })
}

// TestStageWithoutParentsStillFences: a stage the control plane adopted
// explicitly has no re-homing loop, so it does not track when it was last
// contacted — but it fences by epoch exactly like one that does.
func TestStageWithoutParentsStillFences(t *testing.T) {
	n := fastNet()
	v, err := StartVirtual(Config{ID: 1, Network: n.Host("s")})
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	cli := dialStage(t, n, v.Info().Addr)
	ctx := context.Background()
	if _, err := cli.Call(ctx, &wire.Collect{Cycle: 1, Epoch: 5}); err != nil {
		t.Fatalf("collect at epoch 5: %v", err)
	}
	if _, err := cli.Call(ctx, &wire.Heartbeat{}); err != nil {
		t.Fatalf("heartbeat: %v", err)
	}
	_, err = cli.Call(ctx, &wire.Enforce{Cycle: 1, Epoch: 3})
	var er *wire.ErrorReply
	if !errors.As(err, &er) || er.Code != wire.CodeStaleEpoch || er.Epoch != 5 {
		t.Fatalf("enforce at deposed epoch 3 = %v, want CodeStaleEpoch carrying epoch 5", err)
	}
	if v.Epoch() != 5 || v.FencedCalls() != 1 {
		t.Errorf("epoch %d fenced %d, want 5 and 1", v.Epoch(), v.FencedCalls())
	}
}

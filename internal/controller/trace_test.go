package controller

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"github.com/dsrhaslab/sdscale/internal/trace"
	"github.com/dsrhaslab/sdscale/internal/wire"
)

// TestTracedCycleSpans checks that a flat cycle records one cycle span,
// three phase spans, and per-child call spans, all carrying the cycle's
// context (cycle number, epoch, fan-out mode, phase).
func TestTracedCycleSpans(t *testing.T) {
	tr := trace.New(4096)
	n := fastNet()
	stages := startStages(t, n, 6, 2, wire.Rates{1000, 100})
	g := buildFlat(t, n, stages, GlobalConfig{
		Capacity: wire.Rates{4000, 400},
		Epoch:    3,
		Tracer:   tr,
	})

	if _, err := g.RunCycle(context.Background()); err != nil {
		t.Fatalf("RunCycle: %v", err)
	}

	var cycles, phases, calls int
	for _, s := range tr.Snapshot() {
		if s.Epoch != 3 {
			t.Fatalf("span with wrong epoch: %+v", s)
		}
		if s.Cycle != 1 {
			t.Fatalf("span with wrong cycle: %+v", s)
		}
		switch s.Kind {
		case trace.KindCycle:
			cycles++
			if s.Phase != trace.PhaseNone {
				t.Fatalf("cycle span carries a phase: %+v", s)
			}
		case trace.KindPhase:
			phases++
		case trace.KindCall:
			calls++
			if s.Phase != trace.PhaseCollect && s.Phase != trace.PhaseEnforce {
				t.Fatalf("call span outside fan-out phases: %+v", s)
			}
			if s.Tag == 0 {
				t.Fatalf("call span without child tag: %+v", s)
			}
		}
	}
	if cycles != 1 || phases != 3 {
		t.Fatalf("got %d cycle / %d phase spans, want 1 / 3", cycles, phases)
	}
	// Collect and enforce each fan out to every stage.
	if want := 2 * len(stages); calls != want {
		t.Fatalf("got %d call spans, want %d", calls, want)
	}

	tot := tr.Totals()
	if tot.Cycles != 1 || tot.ClientCalls != uint64(2*len(stages)) || tot.ClientErrors != 0 {
		t.Fatalf("totals: %+v", tot)
	}
}

// TestStatsAllocatesNothingPerChild: a Stats snapshot serves every /metrics
// scrape and sdsctl status line, so what it allocates must not grow with the
// membership. Counting the stages once copied the whole membership (80 KB at
// 10,000 children) on every call.
func TestStatsAllocatesNothingPerChild(t *testing.T) {
	perCall := func(children int, hier bool) uint64 {
		n := fastNet()
		stages := startStages(t, n, children, 4, wire.Rates{1000, 100})
		var g *Global
		if hier {
			g, _ = buildHierarchy(t, n, stages, 2, GlobalConfig{Capacity: wire.Rates{4000, 400}})
		} else {
			g = buildFlat(t, n, stages, GlobalConfig{Capacity: wire.Rates{4000, 400}})
		}
		if _, err := g.RunCycle(context.Background()); err != nil {
			t.Fatal(err)
		}
		if st := g.Stats(); st.Stages != children {
			t.Fatalf("Stats().Stages = %d, want %d", st.Stages, children)
		}
		const calls = 100
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range calls {
			g.Stats()
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / calls
	}
	for _, hier := range []bool{false, true} {
		small, large := perCall(50, hier), perCall(800, hier)
		t.Logf("hierarchical=%v: %d B per Stats call at 50 stages, %d B at 800", hier, small, large)
		// 750 more children would be at least 6 KB more for a membership copy.
		if large > small+256 {
			t.Errorf("hierarchical=%v: Stats allocates %d B per call at 800 stages, %d at 50", hier, large, small)
		}
	}
}

// TestStatsDuringLiveCycle hammers Stats from several goroutines while
// cycles run. Stats promises per-field (not cross-field) consistency; under
// the race detector this test proves every field read is individually
// synchronized with the cycle that updates it.
func TestStatsDuringLiveCycle(t *testing.T) {
	n := fastNet()
	stages := startStages(t, n, 8, 2, wire.Rates{1000, 100})
	g := buildFlat(t, n, stages, GlobalConfig{Capacity: wire.Rates{4000, 400}})

	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := g.RunCycle(context.Background()); err != nil {
				t.Errorf("RunCycle: %v", err)
				return
			}
		}
	}()

	const readers = 4
	readersDone := make(chan struct{}, readers)
	for range readers {
		go func() {
			defer func() { readersDone <- struct{}{} }()
			for {
				select {
				case <-stop:
					return
				default:
				}
				st := g.Stats()
				if st.Children != 8 {
					t.Errorf("Stats children = %d, want 8", st.Children)
					return
				}
				_ = st.Pipeline.CollectInFlight
				_ = st.Faults.Quarantines
			}
		}()
	}

	time.Sleep(200 * time.Millisecond)
	close(stop)
	<-done
	for range readers {
		<-readersDone
	}
}

// TestTracedFailoverSpanLifecycle checks the span lifecycle across a
// leadership change: a stepped-down controller records nothing new (no ring
// entries attributed to a stale epoch), and a promoted standby's spans carry
// the bumped epoch.
func TestTracedFailoverSpanLifecycle(t *testing.T) {
	ctx := context.Background()
	n := fastNet()
	stages := startStages(t, n, 4, 2, wire.Rates{1000, 100})

	primaryTr := trace.New(4096)
	g := buildFlat(t, n, stages, GlobalConfig{
		Capacity: wire.Rates{4000, 400},
		Epoch:    5,
		Tracer:   primaryTr,
	})
	if _, err := g.RunCycle(ctx); err != nil {
		t.Fatalf("RunCycle: %v", err)
	}

	// Call spans finish on the read-loop goroutine; wait until the ring
	// quiesces so the pre-step-down append count is stable.
	waitStableAppends(t, primaryTr)
	before := resident(primaryTr)

	g.stepDown("test: simulated newer epoch")
	if _, err := g.RunCycle(ctx); !errors.Is(err, ErrDeposed) {
		t.Fatalf("RunCycle after step-down: %v, want ErrDeposed", err)
	}
	time.Sleep(20 * time.Millisecond)
	if got := resident(primaryTr); got != before {
		t.Fatalf("deposed controller appended %d spans", got-before)
	}
	for _, s := range primaryTr.Snapshot() {
		if s.Epoch != 5 {
			t.Fatalf("span attributed to unexpected epoch: %+v", s)
		}
	}

	// A promoted standby leads with a bumped epoch; its spans must carry it.
	standbyTr := trace.New(4096)
	sb, err := StartGlobal(GlobalConfig{
		Network:    n.Host("standby"),
		ListenAddr: ":0",
		Standby:    true,
		Epoch:      5,
		Capacity:   wire.Rates{4000, 400},
		Tracer:     standbyTr,
	})
	if err != nil {
		t.Fatalf("StartGlobal standby: %v", err)
	}
	defer sb.Close()
	if _, err := sb.RunCycle(ctx); !errors.Is(err, ErrStandby) {
		t.Fatalf("standby RunCycle: %v, want ErrStandby", err)
	}
	if got := resident(standbyTr); got != 0 {
		t.Fatalf("unpromoted standby appended %d spans", got)
	}
	if err := sb.Promote(ctx); err != nil {
		t.Fatalf("Promote: %v", err)
	}
	for _, v := range stages {
		if err := sb.AddStage(ctx, v.Info()); err != nil {
			t.Fatalf("AddStage: %v", err)
		}
	}
	if _, err := sb.RunCycle(ctx); err != nil {
		t.Fatalf("promoted RunCycle: %v", err)
	}
	waitStableAppends(t, standbyTr)
	if resident(standbyTr) == 0 {
		t.Fatal("promoted standby recorded no spans")
	}
	for _, s := range standbyTr.Snapshot() {
		if s.Epoch != 6 {
			t.Fatalf("promoted span epoch %d, want 6: %+v", s.Epoch, s)
		}
	}
}

// resident returns how many spans tr holds: every span it appended, since
// these tests record fewer spans than the ring's capacity.
func resident(tr *trace.Tracer) int { return len(tr.Snapshot()) }

// waitStableAppends waits until the tracer's span count stops moving
// (in-flight call spans finish on read-loop goroutines).
func waitStableAppends(t *testing.T, tr *trace.Tracer) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	prev := resident(tr)
	for {
		time.Sleep(10 * time.Millisecond)
		cur := resident(tr)
		if cur == prev {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("tracer appends never quiesced")
		}
		prev = cur
	}
}

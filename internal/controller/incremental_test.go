package controller

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/dsrhaslab/sdscale/internal/stage"
	"github.com/dsrhaslab/sdscale/internal/transport/simnet"
	"github.com/dsrhaslab/sdscale/internal/wire"
	"github.com/dsrhaslab/sdscale/internal/workload"
)

// Dirty-set edge cases for the event-driven incremental cycle, end to end
// through Global: push sequence ordering, the quiesced fast path, pushes
// racing quarantine and readmission, re-registration invalidation, and a
// -race stress of concurrent pushes against in-flight cycles. The collect-set
// and report-source cases shared by every role (heartbeat-floor expiry
// among them) are in core_test.go.

// startPushStages is startStages with the event-driven push pipeline turned
// on: tight sampling so threshold crossings and heartbeat floors both fire
// within a short test.
func startPushStages(t *testing.T, n *simnet.Net, count, nJobs int, gen func(i int) workload.Generator) []*stage.Virtual {
	t.Helper()
	stages := make([]*stage.Virtual, count)
	for i := range stages {
		v, err := stage.StartVirtual(stage.Config{
			ID:            uint64(i + 1),
			JobID:         uint64(i%nJobs + 1),
			Weight:        1,
			Generator:     gen(i),
			Network:       n.Host(fmt.Sprintf("stage-%d", i+1)),
			PushThreshold: 0.01,
			PushInterval:  time.Millisecond,
			PushFloor:     3 * time.Millisecond,
		})
		if err != nil {
			t.Fatalf("start push stage %d: %v", i, err)
		}
		stages[i] = v
	}
	t.Cleanup(func() {
		for _, v := range stages {
			v.Close()
		}
	})
	return stages
}

// push injects a ReportDelta through the controller's real push entry point
// (the same function the connections' readers call).
func push(g *Global, stageID, jobID, seq uint64, demand wire.Rates) {
	g.onPush(&wire.ReportDelta{
		Seq: seq,
		Report: wire.StageReport{
			StageID: stageID,
			JobID:   jobID,
			Demand:  demand,
			Usage:   demand,
		},
	})
}

// TestChildPushSeqOrdering: reordered stale deltas must be dropped, but a
// Full baseline (stage restart, epoch change) resets the sequence space.
func TestChildPushSeqOrdering(t *testing.T) {
	c := &child{}
	now := time.Now()
	rd := func(seq uint64, full bool, demand float64) *wire.ReportDelta {
		return &wire.ReportDelta{Seq: seq, Full: full,
			Report: wire.StageReport{StageID: 1, JobID: 1, Demand: wire.Rates{demand, demand / 10}}}
	}
	if !c.notePush(rd(2, false, 100), now) {
		t.Fatal("first push (seq 2) rejected")
	}
	if c.notePush(rd(1, false, 999), now) {
		t.Fatal("reordered stale push (seq 1 after 2) accepted")
	}
	m, _, ok := c.staleReport(now, time.Hour)
	if !ok {
		t.Fatal("no cached report after push")
	}
	if got := m.(*wire.CollectReply).Reports[0].Demand[0]; got != 100 {
		t.Fatalf("stale push overwrote the cache: demand = %v, want 100", got)
	}
	// A Full baseline from a restarted stage restarts the sequence space.
	if !c.notePush(rd(1, true, 50), now) {
		t.Fatal("Full baseline push rejected after restart")
	}
	rows, wasDirty, collect := c.visit(nil, now, time.Hour, time.Hour, false, true)
	if !wasDirty {
		t.Fatal("accepted pushes did not mark the child dirty")
	}
	if collect {
		t.Fatal("fresh pushed cache scheduled a collect")
	}
	if len(rows) != 1 || rows[0].Demand[0] != 50 {
		t.Fatalf("visit copied out %+v, want the Full baseline's row", rows)
	}
	// The claim is one-shot: a second look without new pushes is clean.
	if _, wasDirty, _ = c.visit(nil, now, time.Hour, time.Hour, false, true); wasDirty {
		t.Fatal("dirty flag not claimed by visit")
	}
}

// TestIncrementalQuiescedFastPath: with fresh push-fed caches, no dirty
// children, and stable membership, the cycle must skip collect and enforce
// entirely — and a push must wake it back up without any collect scatter.
func TestIncrementalQuiescedFastPath(t *testing.T) {
	n := fastNet()
	stages := startStages(t, n, 4, 2, wire.Rates{1000, 100}) // silent: no push config
	g := buildFlat(t, n, stages, GlobalConfig{
		Capacity:         wire.Rates{2000, 200},
		DeltaEnforcement: true,
		Incremental:      true,
		IncrementalFloor: time.Hour, // only pushes may wake the cycle
	})
	ctx := context.Background()

	// Cycle 1 collects everyone (no cache yet) and enforces.
	if _, err := g.RunCycle(ctx); err != nil {
		t.Fatal(err)
	}
	var collects, enforces [4]uint64
	for i, v := range stages {
		collects[i], enforces[i] = v.Counters()
		if collects[i] == 0 {
			t.Fatalf("stage %d never collected on the priming cycle", i)
		}
	}

	// Cycles 2-4 must take the quiesced fast path: no traffic at all.
	suppressed := g.Stats().Pipeline.SuppressedCollects
	for i := 0; i < 3; i++ {
		if _, err := g.RunCycle(ctx); err != nil {
			t.Fatal(err)
		}
	}
	for i, v := range stages {
		c, e := v.Counters()
		if c != collects[i] || e != enforces[i] {
			t.Errorf("stage %d saw traffic while quiesced: collects %d->%d enforces %d->%d",
				i, collects[i], c, enforces[i], e)
		}
	}
	if got := g.Stats().Pipeline.SuppressedCollects - suppressed; got != 12 {
		t.Errorf("suppressed collects = %d over 3 quiesced cycles of 4 children, want 12", got)
	}

	// A pushed demand move re-dirties exactly one child: the next cycle
	// recomputes from the cache and enforces the changed rules, still with
	// zero collect calls.
	push(g, 1, 1, 1, wire.Rates{4000, 400})
	if _, err := g.RunCycle(ctx); err != nil {
		t.Fatal(err)
	}
	if c, _ := stages[0].Counters(); c != collects[0] {
		t.Errorf("push triggered a collect scatter: %d -> %d", collects[0], c)
	}
	if _, e := stages[0].Counters(); e == enforces[0] {
		t.Error("pushed demand move did not re-enforce the moved stage")
	}
	if got := g.Stats().Pipeline.DirtyChildren; got != 1 {
		t.Errorf("DirtyChildren = %d after one push, want 1", got)
	}
}

// TestIncrementalSuppressedEnforcesCounted: in an incremental cycle every
// child with a rule is either sent it or counted as a suppressed enforce,
// across every issuer's range. The fleet is two issuers' worth of children
// at GOMAXPROCS 2, so each issuer contributes its own range's count.
func TestIncrementalSuppressedEnforcesCounted(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	const count = 2 * parallelIssueMin
	n := fastNet()
	stages := startStages(t, n, count, 4, wire.Rates{100, 10})
	g := buildFlat(t, n, stages, GlobalConfig{
		Capacity:         wire.Rates{40 * count, 4 * count},
		DeltaEnforcement: true,
		Incremental:      true,
		IncrementalFloor: time.Hour,
	})
	ctx := context.Background()
	enforces := func() (sum uint64) {
		for _, v := range stages {
			_, e := v.Counters()
			sum += e
		}
		return sum
	}
	if _, err := g.RunCycle(ctx); err != nil {
		t.Fatal(err)
	}
	sent, suppressed := enforces(), g.Stats().Pipeline.SuppressedEnforces
	// One job's demand moves: its stages' rules change, the rest do not.
	push(g, 1, 1, 1, wire.Rates{4000, 400})
	if _, err := g.RunCycle(ctx); err != nil {
		t.Fatal(err)
	}
	sent, suppressed = enforces()-sent, g.Stats().Pipeline.SuppressedEnforces-suppressed
	if sent == 0 || suppressed == 0 || sent+suppressed != count {
		t.Fatalf("%d enforces sent and %d suppressed, want both positive and %d in all", sent, suppressed, count)
	}
}

// TestIncrementalQuarantinedWhileDirtySurvivesReadmission: a push that
// arrives while its child is quarantined must still land in the report
// cache and keep the child dirty, so the cycle after readmission refreshes
// and re-enforces it instead of fast-pathing past the disruption.
func TestIncrementalQuarantinedWhileDirtySurvivesReadmission(t *testing.T) {
	n := fastNet()
	stages := startStages(t, n, 3, 1, wire.Rates{100, 10})
	g := buildFlat(t, n, stages, GlobalConfig{
		Capacity:         wire.Rates{300, 30},
		DeltaEnforcement: true,
		Incremental:      true,
		IncrementalFloor: time.Hour,
		CallTimeout:      200 * time.Millisecond,
		MaxFailures:      1,
		ProbeInterval:    2 * time.Millisecond,
	})
	ctx := context.Background()

	for i := 0; i < 2; i++ {
		if _, err := g.RunCycle(ctx); err != nil {
			t.Fatal(err)
		}
	}

	// Partition stage 2, then push demand moves for it: the recompute
	// changes its rule, the enforce fails, and the breaker trips. The
	// cycle itself must keep completing.
	n.Host("stage-2").SetPartitioned(true)
	seq := uint64(1)
	deadline := time.Now().Add(5 * time.Second)
	for g.Stats().Quarantined != 1 && time.Now().Before(deadline) {
		push(g, 2, 1, seq, wire.Rates{100 + float64(seq)*50, 10})
		seq++
		if _, err := g.RunCycle(ctx); err != nil {
			t.Fatalf("cycle during partition: %v", err)
		}
	}
	if got := g.Stats().QuarantinedIDs; len(got) != 1 || got[0] != 2 {
		t.Fatalf("QuarantinedIDs = %v, want [2]", got)
	}

	// The push that raced the outage: it must be accepted into the cache
	// and keep the quarantined child dirty.
	push(g, 2, 1, seq, wire.Rates{1500, 150})
	c2 := g.members.get(2)
	if m, _, ok := c2.staleReport(time.Now(), time.Hour); !ok {
		t.Fatal("quarantined child lost its report cache")
	} else if got := m.(*wire.CollectReply).Reports[0].Demand[0]; got != 1500 {
		t.Fatalf("push during quarantine not cached: demand = %v, want 1500", got)
	}

	// Heal; half-open probes readmit the child. The readmitting cycle
	// itself consumes the forced collect, so snapshot the stage's counter
	// while it is still unreachable.
	before, _ := stages[1].Counters()
	n.Host("stage-2").SetPartitioned(false)
	deadline = time.Now().Add(5 * time.Second)
	for g.Stats().Quarantined != 0 && time.Now().Before(deadline) {
		if _, err := g.RunCycle(ctx); err != nil {
			t.Fatalf("cycle after heal: %v", err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if g.Stats().Quarantined != 0 {
		t.Fatal("child never readmitted after heal")
	}
	if f := g.Faults(); f.Readmissions() == 0 {
		t.Error("Readmissions = 0, want >= 1")
	}

	// Readmission must not fast-path past the disruption: the child's
	// cached report predates the outage's end, so the readmitting cycle
	// force-collects a fresh one, and the recompute restores its rule.
	if _, err := g.RunCycle(ctx); err != nil {
		t.Fatal(err)
	}
	if after, _ := stages[1].Counters(); after < before+1 {
		t.Errorf("readmitted child collects = %d, want >= %d (forced refresh)", after, before+1)
	}
	if _, ok := stages[1].LastRule(); !ok {
		t.Error("readmitted child has no rule")
	}
}

// TestIncrementalReRegistrationForcesFullReport extends the scenario of
// TestReRegistrationGetsFullRules to incremental mode: a re-homed child's
// registration bumps its connection epoch, which must invalidate both
// caches — the next cycle force-collects a full report (the pushed-delta
// sequence space restarted) and sends a full rule set, while every
// undisturbed child stays on the quiesced fast path.
func TestIncrementalReRegistrationForcesFullReport(t *testing.T) {
	n := fastNet()
	stages := startStages(t, n, 4, 2, wire.Rates{1000, 100})
	g := buildFlat(t, n, stages, GlobalConfig{
		Capacity:         wire.Rates{2000, 200},
		DeltaEnforcement: true,
		Incremental:      true,
		IncrementalFloor: time.Hour,
		ListenAddr:       ":0",
	})
	ctx := context.Background()

	for i := 0; i < 2; i++ {
		if _, err := g.RunCycle(ctx); err != nil {
			t.Fatal(err)
		}
	}
	var collects, enforces [4]uint64
	for i, v := range stages {
		collects[i], enforces[i] = v.Counters()
	}

	// Advance the push sequence so a post-re-registration Seq 1 would be
	// stale unless the re-registration resets the sequence space.
	push(g, 1, 1, 9, wire.Rates{1000, 100})

	// Stage 1 re-homes: a duplicate registration replaces its connection.
	if err := stage.Register(ctx, n.Host("stage-1"), g.Addr(), stages[0].Info()); err != nil {
		t.Fatalf("re-register: %v", err)
	}
	if got := g.Faults().ReRegistrations(); got != 1 {
		t.Fatalf("re-registrations = %d, want 1", got)
	}

	if _, err := g.RunCycle(ctx); err != nil {
		t.Fatal(err)
	}
	c, e := stages[0].Counters()
	if c != collects[0]+1 {
		t.Errorf("re-homed stage collects = %d, want %d (forced full report)", c, collects[0]+1)
	}
	if e != enforces[0]+1 {
		t.Errorf("re-homed stage enforces = %d, want %d (full rule set)", e, enforces[0]+1)
	}
	if _, ok := stages[0].LastRule(); !ok {
		t.Fatal("re-homed stage has no rule after the post-re-homing cycle")
	}
	for i := 1; i < 4; i++ {
		c, e := stages[i].Counters()
		if c != collects[i] || e != enforces[i] {
			t.Errorf("undisturbed stage %d saw traffic: collects %d->%d enforces %d->%d",
				i, collects[i], c, enforces[i], e)
		}
	}

	// The restarted sequence space: a low-seq push from the re-registered
	// child must be accepted, not dropped as a reordered stale delta.
	if !g.members.get(1).notePush(&wire.ReportDelta{Seq: 1,
		Report: wire.StageReport{StageID: 1, JobID: 1, Demand: wire.Rates{2000, 200}}},
		time.Now()) {
		t.Error("post-re-registration push (seq 1) dropped as stale")
	}
}

// TestIncrementalConcurrentPushStress hammers the push entry point from
// stage push loops and direct injection goroutines while incremental cycles
// run back to back. Run under -race (the CI race shard covers this
// package); correctness assertions are deliberately loose — the test's job
// is to expose unsynchronized dirty-set and report-cache access.
//
// It runs at least 100 cycles, and then more until a stage's push loop has
// reached the controller over the wire: 100 cycles of 8 in-process stages
// can finish inside one push tick.
func TestIncrementalConcurrentPushStress(t *testing.T) {
	n := fastNet()
	stages := startPushStages(t, n, 8, 2, func(i int) workload.Generator {
		return workload.RandomWalk{
			Mean:   wire.Rates{1000, 100},
			Jitter: 0.5,
			Step:   2 * time.Millisecond,
			Seed:   int64(i + 1),
		}
	})
	g := buildFlat(t, n, stages, GlobalConfig{
		Capacity:         wire.Rates{4000, 400},
		DeltaEnforcement: true,
		Incremental:      true,
		IncrementalFloor: 50 * time.Millisecond,
	})
	ctx := context.Background()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Direct injection races the wire-path pushes: interleaved
			// sequence numbers exercise the stale-drop branch too.
			for seq := uint64(1); ; seq++ {
				select {
				case <-stop:
					return
				default:
				}
				id := uint64(w*2 + int(seq%2) + 1)
				push(g, id, (id-1)%2+1, seq, wire.Rates{float64(500 + 100*seq%1000), 50})
			}
		}(w)
	}

	wirePushes := func() (n uint64) {
		for _, v := range stages {
			n += v.Pushes()
		}
		return n
	}
	deadline := time.Now().Add(10 * time.Second)
	for i := 0; i < 100 || (wirePushes() == 0 && time.Now().Before(deadline)); i++ {
		if _, err := g.RunCycle(ctx); err != nil {
			t.Fatalf("cycle %d: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()

	for i, v := range stages {
		if _, ok := v.LastRule(); !ok {
			t.Errorf("stage %d has no rule after the stress run", i)
		}
	}
	if wirePushes() == 0 {
		t.Error("stage push loops never fired during the stress run")
	}
	if g.Stats().Pipeline.SuppressedEnforces == 0 {
		t.Error("no enforces suppressed across 100 incremental cycles")
	}
}

// TestIncrementalResendsRuleWhoseEnforceFailed: the delta-enforcement cache
// records what a child holds, not what was attempted. A rule change is
// computed while stage 2 is unreachable, so its Enforce fails; once the
// stage is back nothing else changes — no push, no membership change, a
// fresh cache — and the controller must still deliver the rule, or the fleet
// holds limits summing past capacity for good ("zero rule loss").
func TestIncrementalResendsRuleWhoseEnforceFailed(t *testing.T) {
	n := fastNet()
	stages := startStages(t, n, 2, 1, wire.Rates{100, 10})
	g := buildFlat(t, n, stages, GlobalConfig{
		Capacity:         wire.Rates{100, 10},
		Incremental:      true,
		IncrementalFloor: time.Hour,
		MaxFailures:      100, // the breaker stays out of it
	})
	ctx := context.Background()
	cycle := func() {
		t.Helper()
		if _, err := g.RunCycle(ctx); err != nil {
			t.Fatal(err)
		}
	}
	held := func(i int) wire.Rates {
		rule, _ := stages[i].LastRule()
		return rule.Limit
	}

	cycle()
	if held(0) != (wire.Rates{50, 5}) || held(1) != (wire.Rates{50, 5}) {
		t.Fatalf("even demand: stages hold %v and %v, want {50 5} each", held(0), held(1))
	}

	// Cut stage 2 off and detach its client, so every call to it fails fast.
	n.Host("stage-2").SetPartitioned(true)
	c2 := g.members.get(2)
	detachClient(t, c2)
	// Stage 1's demand triples: the split moves to 75/25, and stage 2's half
	// of that change cannot be delivered (its collect fails too).
	push(g, 1, 1, 1, wire.Rates{300, 30})
	cycle()
	if held(0) != (wire.Rates{75, 7.5}) || held(1) != (wire.Rates{50, 5}) {
		t.Fatalf("during the partition: stages hold %v and %v, want {75 7.5} and the old {50 5}", held(0), held(1))
	}
	if got := g.Stats().CallErrors; got != 2 {
		t.Fatalf("during the partition: %d failed calls, want 2 (stage 2's collect and enforce)", got)
	}

	// The next cycle's sweep redials stage 2.
	n.Host("stage-2").SetPartitioned(false)
	for i := 0; i < 200; i++ {
		cycle()
	}
	if held(0) != (wire.Rates{75, 7.5}) || held(1) != (wire.Rates{25, 2.5}) {
		t.Errorf("after 200 healthy cycles: stages hold %v and %v (sum %v), want {75 7.5} and {25 2.5}: capacity is {100 10}",
			held(0), held(1), held(0).Add(held(1)))
	}
	for i, v := range stages {
		if _, enforces := v.Counters(); enforces != 2 {
			t.Errorf("stage %d served %d enforces, want 2 (each rule delivered once)", i+1, enforces)
		}
	}
	st := g.Stats()
	if st.CallErrors != 2 || st.Quarantined != 0 {
		t.Errorf("CallErrors = %d, Quarantined = %d, want 2 and 0", st.CallErrors, st.Quarantined)
	}
}

package controller

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"

	"github.com/dsrhaslab/sdscale/internal/stage"
	"github.com/dsrhaslab/sdscale/internal/wire"
	"github.com/dsrhaslab/sdscale/internal/workload"
)

// searchRun is the reference run lookup: a binary search for every child.
func searchRun(rules []wire.Rule, stageID uint64) []wire.Rule {
	lo := sort.Search(len(rules), func(i int) bool { return rules[i].StageID >= stageID })
	hi := lo
	for hi < len(rules) && rules[hi].StageID == stageID {
		hi++
	}
	return rules[lo:hi:hi]
}

// TestStageRunCursorMatchesSearch: whatever order an issuer's children come
// in and wherever its range starts, the cursor finds the run a binary search
// finds. The rules are StageID-sorted as a sealed table or an aggregator's
// sorted batch is: stage 3 has a multi-rule batch, stage 5 a duplicate rule,
// stage 9 a rule but no child, and stages 4 and 11 children but no rule.
func TestStageRunCursorMatchesSearch(t *testing.T) {
	var rules []wire.Rule
	for _, id := range []uint64{1, 2, 3, 3, 3, 5, 5, 6, 7, 9, 10, 12} {
		rules = append(rules, wire.Rule{StageID: id, JobID: uint64(len(rules) + 1), Action: wire.ActionSetLimit})
	}
	orders := []struct {
		name string
		ids  []uint64
	}{
		{"in order", []uint64{1, 2, 3, 4, 5, 6, 7, 10, 11, 12}},
		{"reversed", []uint64{12, 11, 10, 7, 6, 5, 4, 3, 2, 1}},
		{"out of order", []uint64{2, 1, 5, 3, 4, 12, 6, 7, 13, 10, 0, 9}},
		{"repeated", []uint64{3, 3, 5, 5, 1, 1, 12, 12}},
	}
	for _, o := range orders {
		// Every split into issuer ranges; each range's cursor starts at zero.
		for size := 1; size <= len(o.ids); size++ {
			for lo := 0; lo < len(o.ids); lo += size {
				at := 0
				for _, id := range o.ids[lo:min(lo+size, len(o.ids))] {
					var run []wire.Rule
					run, at = stageRun(rules, id, at)
					if want := searchRun(rules, id); !slices.Equal(run, want) || cap(run) != len(run) {
						t.Fatalf("%s, ranges of %d from %d: stage %d's run is %v (cap %d), want %v",
							o.name, size, lo, id, run, cap(run), want)
					}
				}
			}
		}
	}
	if run, at := stageRun(nil, 7, 0); len(run) != 0 || at != 0 {
		t.Fatalf("no rules: run %v, cursor %d", run, at)
	}
}

// gatherOutcome is what one cycle of runGatherFleet gathered and sent.
type gatherOutcome struct {
	idle               bool
	reports            []wire.StageReport
	targets            []uint64
	dirty              int64
	suppressedCollects uint64
	suppressedEnforces uint64
}

// runGatherFleet drives an incremental core over count stages at GOMAXPROCS
// procs, through prepareCycle → gatherReports → identity compute (limit =
// reported demand) → enforceStageRules, as coreFixture does. The members are
// registered out of StageID order. After a priming and a steady cycle, the
// fleet holds each edge case of the incremental collect: pushed (dirty),
// re-registered (forced collect), floor-aged, quarantined and dead-client
// children, one of each kind in every issuer range. Probes never run, so the
// outcome depends only on the calls the cycles issued. It returns every
// cycle's outcome, the stages' end state and the breaker outcomes.
func runGatherFleet(t *testing.T, procs, count int) ([]gatherOutcome, issueOutcome) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	n := fastNet()
	g, err := StartGlobal(GlobalConfig{
		Network: n.Host("ctl"), Incremental: true, IncrementalFloor: coreFloor,
		StaleAfter: coreStaleAfter, CallTimeout: 200 * time.Millisecond, MaxFailures: coreMaxFailures,
		ProbeInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { g.Close() })
	k := &g.stageCore
	ctx := context.Background()
	stages := make([]*stage.Virtual, count)
	for i := range stages {
		id := uint64(i + 1)
		v, err := stage.StartVirtual(stage.Config{
			ID: id, JobID: id%7 + 1, Weight: float64(id%3 + 1), Network: n.Host(fmt.Sprintf("stage-%d", id)),
			Generator: workload.Constant{Rates: wire.Rates{float64(50 + i%41), float64(5 + i%13)}},
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { v.Close() })
		stages[i] = v
	}
	// Each range of parallelIssueMin members registers its first 100 stages
	// in reverse, so every issuer's cursor meets children out of order.
	for lo := 0; lo < count; lo += parallelIssueMin {
		for j := range parallelIssueMin {
			i := lo + j
			if j < 100 {
				i = lo + 99 - j
			}
			if _, err := k.addChild(ctx, wire.RoleStage, stages[i].Info(), nil); err != nil {
				t.Fatal(err)
			}
		}
	}

	var outs []gatherOutcome
	const racing = "racing pushes"
	cycle := func(step string) {
		t.Helper()
		k.arena.Begin()
		active, quarantined := k.prepareCycle(ctx)
		supC, supE := k.pipe.SuppressedCollects(), k.pipe.SuppressedEnforces()
		reports, idle := k.gatherReports(ctx, wire.Collect{Cycle: uint64(len(outs) + 1), WindowMicros: 1_000_000},
			active, quarantined, true)
		out := gatherOutcome{idle: idle, reports: slices.Clone(reports), dirty: k.pipe.DirtyChildren()}
		if idle {
			outs = append(outs, out)
			return
		}
		for _, c := range k.scratch.collect {
			out.targets = append(out.targets, c.info.ID)
		}
		// The set is every active child's cached rows and then the
		// quarantined ones', in member order, unless a push has moved a
		// cache since.
		var want []wire.StageReport
		now := time.Now()
		for _, c := range append(slices.Clone(active), quarantined...) {
			want, _, _ = c.appendCachedReports(want, now, coreStaleAfter)
		}
		if step != racing && !slices.Equal(out.reports, want) {
			t.Fatalf("%s: gathered %d rows out of member order or apart from the caches (%d cached)",
				step, len(out.reports), len(want))
		}
		rules := make([]wire.Rule, len(reports))
		for i, r := range reports {
			rules[i] = wire.Rule{StageID: r.StageID, JobID: r.JobID, Action: wire.ActionSetLimit, Limit: r.Demand}
		}
		slices.SortFunc(rules, func(a, b wire.Rule) int { return stageOrder(a, b.StageID) })
		k.enforceStageRules(ctx, uint64(len(outs)+1), 0, active, rules, nil)
		out.suppressedCollects = k.pipe.SuppressedCollects() - supC
		out.suppressedEnforces = k.pipe.SuppressedEnforces() - supE
		outs = append(outs, out)
	}
	cycle("priming")
	for _, v := range stages {
		if _, ok := v.LastRule(); !ok {
			t.Fatalf("priming: stage %d holds no rule", v.Info().ID)
		}
	}
	cycle("steady")
	if !outs[1].idle {
		t.Error("steady: cycle did not idle")
	}
	// Stage indices lo+3 and lo+5 sit in the reversed head of each range:
	// the first child the visits find dirty is the 97th member, and the rows
	// of the 96 before it are copied out then.
	for lo := 0; lo < count; lo += parallelIssueMin {
		k.onPush(&wire.ReportDelta{Seq: 1, Report: wire.StageReport{
			StageID: uint64(lo + 4), JobID: uint64(lo+4)%7 + 1, Demand: wire.Rates{999, 99}}})
	}
	cycle("pushed")
	if o := outs[2]; o.idle || o.dirty != int64(count/parallelIssueMin) || len(o.targets) != 0 {
		t.Errorf("pushed: idle %v, %d dirty, collected %v; want %d dirty and no collect",
			o.idle, o.dirty, o.targets, count/parallelIssueMin)
	}

	member := func(i int) *child { return k.members.get(stages[i].Info().ID) }
	var forced, aged, dead []uint64
	for lo := 0; lo < count; lo += parallelIssueMin {
		c := member(lo + 5)
		if err := k.reRegister(ctx, c, c.info.Addr); err != nil {
			t.Fatal(err)
		}
		forced = append(forced, c.info.ID)
		c = member(lo + 200)
		c.mu.Lock()
		c.lastReportAt = c.lastReportAt.Add(-2 * coreFloor)
		c.mu.Unlock()
		aged = append(aged, c.info.ID)
		for c = member(lo + 300); !c.isQuarantined(); {
			k.accountCall(ctx, c, errors.New("synthetic failure"))
		}
		n.Host(fmt.Sprintf("stage-%d", lo+401)).SetPartitioned(true)
		c = member(lo + 400)
		detachClient(t, c)
		dead = append(dead, c.info.ID)
		// A dead child whose cache has aged out too: its failed collect
		// leaves its slot without a row, and the set is assembled anew.
		n.Host(fmt.Sprintf("stage-%d", lo+451)).SetPartitioned(true)
		c = member(lo + 450)
		detachClient(t, c)
		c.mu.Lock()
		c.lastReportAt = c.lastReportAt.Add(-2 * coreStaleAfter)
		c.mu.Unlock()
		dead = append(dead, c.info.ID)
	}
	cycle("edge cases")
	if want := append(append(slices.Clone(forced), aged...), dead...); !sameIDs(outs[3].targets, want) {
		t.Errorf("edge cases: collected %v, want the forced, aged and dead children %v", outs[3].targets, want)
	}
	if d := outs[3].dirty; d != int64(len(forced)) {
		t.Errorf("edge cases: %d dirty children, want the %d re-registered ones", d, len(forced))
	}
	cycle("dead again")
	cycle("dead quarantined")
	if len(outs[5].targets) != 0 {
		t.Errorf("dead quarantined: collected %v, want none", outs[5].targets)
	}

	var fleet issueOutcome
	for _, v := range stages {
		rule, _ := v.LastRule()
		c, e := v.Counters()
		fleet.rules = append(fleet.rules, rule)
		fleet.collects = append(fleet.collects, c)
		fleet.enforces = append(fleet.enforces, e)
	}
	st := g.Stats()
	fleet.callErrors, fleet.quarantines = st.CallErrors, st.Faults.Quarantines
	fleet.quarantined = slices.Clone(st.QuarantinedIDs)
	slices.Sort(fleet.quarantined)

	// Pushes racing the visits: the comparison is over, so this only gives
	// the race detector both sides of the children's locks at once.
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for f := 1.1; ; f += 0.1 {
			for i := 7; i < count; i += 61 {
				select {
				case <-stop:
					return
				default:
				}
				stages[i].PushDelta(f)
			}
		}
	}()
	for i := 0; i < 3; i++ {
		cycle(racing)
	}
	close(stop)
	wg.Wait()
	return outs, fleet
}

func sameIDs(got, want []uint64) bool {
	got, want = slices.Clone(got), slices.Clone(want)
	slices.Sort(got)
	slices.Sort(want)
	return slices.Equal(got, want)
}

// TestGatherSplitMatchesSerial: the incremental gather's one visit per child
// and the enforce issuers' run cursors reach the same outcome whether the
// fan-outs run on one issuer or split four ways: the same report sets in the
// same order, the same collect targets, dirty and suppressed counts, the
// same rules on every stage and the same breaker outcomes.
func TestGatherSplitMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("two fleets of four issuers' worth of stages")
	}
	const count = 4 * parallelIssueMin
	serial, serialFleet := runGatherFleet(t, 1, count)
	split, splitFleet := runGatherFleet(t, 4, count)
	for i := range serial[:6] {
		s, p := serial[i], split[i]
		if s.idle != p.idle || !slices.Equal(s.reports, p.reports) {
			t.Errorf("cycle %d: report sets differ between the serial and the split run", i+1)
		}
		if !slices.Equal(s.targets, p.targets) || s.dirty != p.dirty ||
			s.suppressedCollects != p.suppressedCollects || s.suppressedEnforces != p.suppressedEnforces {
			t.Errorf("cycle %d: serial collected %v with %d dirty, %d/%d suppressed; split %v with %d dirty, %d/%d suppressed",
				i+1, s.targets, s.dirty, s.suppressedCollects, s.suppressedEnforces,
				p.targets, p.dirty, p.suppressedCollects, p.suppressedEnforces)
		}
	}
	sameIssueOutcome(t, serialFleet, splitFleet)
	if want := 3 * count / parallelIssueMin; len(serialFleet.quarantined) != want {
		t.Errorf("%d children quarantined, want the %d failed and dead ones", len(serialFleet.quarantined), want)
	}
}

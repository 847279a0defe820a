package controller

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"testing"
	"time"

	"github.com/dsrhaslab/sdscale/internal/rpc"
	"github.com/dsrhaslab/sdscale/internal/stage"
	"github.com/dsrhaslab/sdscale/internal/transport/simnet"
	"github.com/dsrhaslab/sdscale/internal/wire"
	"github.com/dsrhaslab/sdscale/internal/workload"
)

// The stage-facing half of the control cycle — gatherReports and
// enforceStageRules — is one implementation embedded in every role, so its
// edge cases are checked once, through each role's core, in both regimes.

const (
	coreFloor       = time.Second      // IncrementalFloor
	coreStaleAfter  = 10 * time.Second // StaleAfter
	coreMaxFailures = 2                // MaxFailures
)

// coreFixture is one role's stageCore over a fresh five-stage fleet. The
// compute between the two halves is the identity (limit = reported demand),
// so every assertion is about what the halves themselves did.
type coreFixture struct {
	t      *testing.T
	net    *simnet.Net
	k      *stageCore
	stages []*stage.Virtual
	cycle  uint64
}

// coreRoles builds each role with the same stage-facing configuration.
var coreRoles = []struct {
	name  string
	start func(t *testing.T, n *simnet.Net, incremental bool) *stageCore
}{
	{"global", func(t *testing.T, n *simnet.Net, incremental bool) *stageCore {
		g, err := StartGlobal(GlobalConfig{
			Network: n.Host("ctl"), Incremental: incremental, IncrementalFloor: coreFloor,
			StaleAfter: coreStaleAfter, CallTimeout: 200 * time.Millisecond, MaxFailures: coreMaxFailures,
			ProbeInterval: 2 * time.Millisecond, MaxProbeInterval: 10 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { g.Close() })
		return &g.stageCore
	}},
	{"aggregator", func(t *testing.T, n *simnet.Net, incremental bool) *stageCore {
		a, err := StartAggregator(AggregatorConfig{
			ID: 100, Network: n.Host("ctl"), Incremental: incremental, IncrementalFloor: coreFloor,
			StaleAfter: coreStaleAfter, CallTimeout: 200 * time.Millisecond, MaxFailures: coreMaxFailures,
			ProbeInterval: 2 * time.Millisecond, MaxProbeInterval: 10 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { a.Close() })
		return &a.stageCore
	}},
	{"peer", func(t *testing.T, n *simnet.Net, incremental bool) *stageCore {
		// A Global with a fellow: the coordinated flat design's controller.
		fellow, err := StartGlobal(GlobalConfig{ID: 101, Network: n.Host("fellow")})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { fellow.Close() })
		p, err := StartGlobal(GlobalConfig{
			ID: 100, Network: n.Host("ctl"), Incremental: incremental, IncrementalFloor: coreFloor,
			StaleAfter: coreStaleAfter, CallTimeout: 200 * time.Millisecond, MaxFailures: coreMaxFailures,
			ProbeInterval: 2 * time.Millisecond, MaxProbeInterval: 10 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { p.Close() })
		if err := p.AddPeer(context.Background(), fellow.ID(), fellow.Addr()); err != nil {
			t.Fatal(err)
		}
		return &p.stageCore
	}},
}

// demandOf is stage id's constant demand: distinct per stage, so a report
// names its origin.
func demandOf(id uint64) wire.Rates { return wire.Rates{100 * float64(id), 10 * float64(id)} }

func (f *coreFixture) addStage(id uint64) {
	f.t.Helper()
	v, err := stage.StartVirtual(stage.Config{
		ID: id, JobID: 1, Weight: 1, Network: f.net.Host(fmt.Sprintf("stage-%d", id)),
		Generator: workload.Constant{Rates: demandOf(id)},
	})
	if err != nil {
		f.t.Fatal(err)
	}
	f.t.Cleanup(func() { v.Close() })
	if _, err := f.k.addChild(context.Background(), wire.RoleStage, v.Info(), nil); err != nil {
		f.t.Fatal(err)
	}
	f.stages = append(f.stages, v)
}

// outcome is what one pass through the two halves did, seen from outside:
// which stages served a collect, which stages the assembled reports cover
// (and stage 2's reported demand, the one the scenario moves), and which
// stages received an enforce.
type outcome struct {
	idle               bool
	collected, covered []uint64
	demand2            float64
	enforced           []uint64
	callErrors         uint64
}

// run drives prepareCycle → gatherReports → identity compute →
// enforceStageRules once.
func (f *coreFixture) run(mayIdle bool) outcome {
	f.t.Helper()
	ctx := context.Background()
	k := f.k
	f.cycle++
	collects := make([]uint64, len(f.stages))
	enforces := make([]uint64, len(f.stages))
	for i, v := range f.stages {
		collects[i], enforces[i] = v.Counters()
	}
	errsBefore := k.callErrors.Load()

	k.arena.Begin()
	active, quarantined := k.prepareCycle(ctx)
	reports, idle := k.gatherReports(ctx, wire.Collect{Cycle: f.cycle, WindowMicros: 1_000_000}, active, quarantined, mayIdle)
	out := outcome{idle: idle}
	rules := make([]wire.Rule, len(reports))
	for i, r := range reports {
		rules[i] = wire.Rule{StageID: r.StageID, JobID: r.JobID, Action: wire.ActionSetLimit, Limit: r.Demand}
		out.covered = append(out.covered, r.StageID)
		if r.StageID == 2 {
			out.demand2 = r.Demand[0]
		}
	}
	sort.Slice(rules, func(a, b int) bool { return rules[a].StageID < rules[b].StageID })
	sort.Slice(out.covered, func(a, b int) bool { return out.covered[a] < out.covered[b] })
	if !idle {
		k.enforceStageRules(ctx, f.cycle, 0, active, rules, nil)
	}

	for i, v := range f.stages {
		c, e := v.Counters()
		if c != collects[i] {
			out.collected = append(out.collected, v.Info().ID)
		}
		if e != enforces[i] {
			out.enforced = append(out.enforced, v.Info().ID)
			if rule, ok := v.LastRule(); !ok || rule.Limit != demandOfReport(reports, v.Info().ID) {
				f.t.Errorf("cycle %d: stage %d holds rule %+v, want its reported demand as the limit", f.cycle, v.Info().ID, rule)
			}
		}
	}
	out.callErrors = k.callErrors.Load() - errsBefore
	return out
}

func demandOfReport(reports []wire.StageReport, id uint64) wire.Rates {
	for _, r := range reports {
		if r.StageID == id {
			return r.Demand
		}
	}
	return wire.Rates{}
}

// age backdates a child's cached report.
func (f *coreFixture) age(id uint64, by time.Duration) {
	c := f.k.members.get(id)
	c.mu.Lock()
	c.lastReportAt = c.lastReportAt.Add(-by)
	c.mu.Unlock()
}

func ids(v ...uint64) []uint64 { return v }

// detachClient waits until the severed connection of a child whose host is
// partitioned has failed its client: every further call to the child fails
// fast, and a redial fails while the partition lasts.
func detachClient(t *testing.T, c *child) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); c.client().Err() == nil; {
		if time.Now().After(deadline) {
			t.Fatalf("child %d's client never failed after the partition", c.info.ID)
		}
		time.Sleep(time.Millisecond)
	}
}

func (f *coreFixture) expect(step string, got outcome, collected, covered, enforced []uint64) {
	f.t.Helper()
	if !reflect.DeepEqual(got.collected, collected) {
		f.t.Errorf("%s: collected from %v, want %v", step, got.collected, collected)
	}
	if !reflect.DeepEqual(got.covered, covered) {
		f.t.Errorf("%s: reports cover %v, want %v", step, got.covered, covered)
	}
	if !reflect.DeepEqual(got.enforced, enforced) {
		f.t.Errorf("%s: enforced on %v, want %v", step, got.enforced, enforced)
	}
}

func TestStageCoreGatherAndEnforce(t *testing.T) {
	for _, role := range coreRoles {
		for _, incremental := range []bool{false, true} {
			name := role.name + "/full"
			if incremental {
				name = role.name + "/incremental"
			}
			t.Run(name, func(t *testing.T) {
				n := fastNet()
				f := &coreFixture{t: t, net: n, k: role.start(t, n, incremental)}
				for id := uint64(1); id <= 5; id++ {
					f.addStage(id)
				}
				all := ids(1, 2, 3, 4, 5)
				// pick selects the expectation for this regime.
				pick := func(full, incr []uint64) []uint64 {
					if incremental {
						return incr
					}
					return full
				}

				// Never-reported children are collected in either regime.
				f.expect("first cycle", f.run(true), all, all, all)

				// Steady: the full path repeats everything; the incremental
				// path reads the cache, sends nothing, and — allowed to —
				// reports idle without assembling anything.
				f.expect("steady", f.run(false), pick(all, nil), all, pick(all, nil))
				got := f.run(true)
				if got.idle != incremental {
					t.Errorf("steady, mayIdle: idle = %v, want %v", got.idle, incremental)
				}
				f.expect("steady, mayIdle", got, pick(all, nil), pick(all, nil), pick(all, nil))

				// A dirty push wakes the incremental path without a collect
				// and re-enforces exactly the moved stage. The full path
				// reads only this cycle's replies: the push changes nothing.
				f.k.onPush(&wire.ReportDelta{Seq: 1, Report: wire.StageReport{StageID: 2, JobID: 1, Demand: wire.Rates{999, 99}}})
				got = f.run(true)
				if got.idle {
					t.Error("dirty push: cycle reported idle")
				}
				f.expect("dirty push", got, pick(all, nil), all, pick(all, ids(2)))
				if want := map[bool]float64{false: demandOf(2)[0], true: 999}[incremental]; got.demand2 != want {
					t.Errorf("dirty push: stage 2 reported demand %v, want %v", got.demand2, want)
				}

				// A cache older than IncrementalFloor is refreshed explicitly
				// even though the child never pushed.
				f.age(4, 2*coreFloor)
				f.expect("cache past floor", f.run(true), pick(all, ids(4)), all, pick(all, nil))

				// A re-registration forces a collect and a full rule set.
				c5 := f.k.members.get(5)
				if err := f.k.reRegister(context.Background(), c5, c5.info.Addr); err != nil {
					t.Fatal(err)
				}
				f.expect("re-registered", f.run(true), pick(all, ids(5)), all, pick(all, ids(5)))

				// A child that does not answer on the full path has no report
				// this cycle and so gets no rule: one failed call (the
				// collect), not two. The incremental path still covers it
				// from its fresh cache and has nothing to send it, but its
				// connection died with the partition and the sweep could not
				// redial it, so it cannot push: it is collected too, and that
				// one call fails in either regime.
				n.Host("stage-3").SetPartitioned(true)
				rest := ids(1, 2, 4, 5)
				got = f.run(false)
				f.expect("non-responder", got, pick(rest, nil), pick(rest, all), pick(rest, nil))
				if got.callErrors != 1 {
					t.Errorf("non-responder: %d failed calls, want 1", got.callErrors)
				}

				// Quarantined: no traffic, but the bounded-stale report still
				// feeds the cycle, which is therefore never idle.
				c3 := f.k.members.get(3)
				for !c3.isQuarantined() {
					f.k.accountCall(context.Background(), c3, errors.New("synthetic failure"))
				}
				used := f.k.faults.Summarize().StaleReportsUsed
				got = f.run(true)
				if got.idle {
					t.Error("quarantined child: cycle reported idle")
				}
				f.expect("quarantined, stale in bound", got, pick(rest, nil), all, pick(rest, nil))
				if d := f.k.faults.Summarize().StaleReportsUsed - used; d != 1 {
					t.Errorf("quarantined, stale in bound: %d stale reports used, want 1", d)
				}

				// ...until it ages past StaleAfter, which is counted as a drop.
				f.age(3, 2*coreStaleAfter)
				dropped := f.k.faults.Summarize().StaleReportsDropped
				f.expect("quarantined, stale aged out", f.run(true), pick(rest, nil), rest, pick(rest, nil))
				if d := f.k.faults.Summarize().StaleReportsDropped - dropped; d != 1 {
					t.Errorf("quarantined, stale aged out: %d stale reports dropped, want 1", d)
				}

				// Readmission forces a collect from the readmitted child.
				n.Host("stage-3").SetPartitioned(false)
				deadline := time.Now().Add(5 * time.Second)
				for got = f.run(true); c3.isQuarantined(); got = f.run(true) {
					if time.Now().After(deadline) {
						t.Fatal("stage 3 never readmitted after heal")
					}
					time.Sleep(2 * time.Millisecond)
				}
				f.expect("readmitted", got, pick(all, ids(3)), all, pick(all, nil))

				// A membership change wakes an otherwise idle cycle, which
				// then goes idle again.
				f.addStage(6)
				six := ids(1, 2, 3, 4, 5, 6)
				got = f.run(true)
				if got.idle {
					t.Error("new member: cycle reported idle")
				}
				f.expect("new member", got, pick(six, ids(6)), six, pick(six, ids(6)))
				if got = f.run(true); got.idle != incremental {
					t.Errorf("after new member: idle = %v, want %v", got.idle, incremental)
				}
				if !incremental {
					return
				}

				// A detached client: stage 6 is cut off behind a fresh cache
				// with no rule change pending, so nothing the cycle computes
				// would contact it — and one call outside the cycle has
				// failed, which detached its client to redial. No push can
				// arrive on a connection that is not there, so the child is
				// in the collect set of every following cycle; each attempt
				// fails fast and the breaker quarantines it after MaxFailures
				// of them, instead of the cycle idling until IncrementalFloor.
				n.Host("stage-6").SetPartitioned(true)
				c6 := f.k.members.get(6)
				detachClient(t, c6)
				var callErrs []error
				hook := f.k.onCallError
				f.k.onCallError = func(c *child, err error) {
					callErrs = append(callErrs, err)
					if hook != nil {
						hook(c, err)
					}
				}
				for i := 1; i <= coreMaxFailures; i++ {
					step := fmt.Sprintf("detached client, cycle %d", i)
					got = f.run(true)
					if got.idle {
						t.Fatalf("%s: cycle reported idle, the detached child went uncontacted", step)
					}
					f.expect(step, got, nil, six, nil)
					if len(callErrs) != i || !errors.Is(callErrs[i-1], rpc.ErrDisconnected) {
						t.Fatalf("%s: failed calls %v, want one more ErrDisconnected", step, callErrs)
					}
					if q := c6.isQuarantined(); q != (i == coreMaxFailures) {
						t.Errorf("%s: quarantined = %v", step, q)
					}
				}
			})
		}
	}
}

// TestQuiescedShortCircuitRearms checks the one part of the idle decision
// that lives in the role: Global arms the short-circuit only after a full
// compute+enforce pass over the current membership, so removing a child —
// which leaves nothing dirty and nothing to collect — still forces a
// recompute, after which the cycle quiesces again.
func TestQuiescedShortCircuitRearms(t *testing.T) {
	n := fastNet()
	stages := startStages(t, n, 4, 1, wire.Rates{100, 10})
	g := buildFlat(t, n, stages, GlobalConfig{
		Capacity:         wire.Rates{200, 20}, // saturated: shares depend on the population
		Incremental:      true,
		IncrementalFloor: time.Hour,
	})
	ctx := context.Background()
	enforces := func() (total uint64) {
		for _, v := range stages[:3] {
			_, e := v.Counters()
			total += e
		}
		return total
	}
	cycle := func() {
		t.Helper()
		if _, err := g.RunCycle(ctx); err != nil {
			t.Fatal(err)
		}
	}

	cycle()
	primed := enforces()
	cycle()
	if got := enforces(); got != primed {
		t.Fatalf("quiesced cycle enforced %d rules", got-primed)
	}
	if !g.RemoveChild(4) {
		t.Fatal("RemoveChild(4) found nothing")
	}
	cycle()
	if got := enforces(); got != primed+3 {
		t.Fatalf("cycle after a removal enforced %d rules, want 3 (every survivor's share grew)", got-primed)
	}
	cycle()
	if got := enforces(); got != primed+3 {
		t.Fatalf("cycle after the recompute enforced %d more rules, want 0 (quiesced again)", got-primed-3)
	}
}

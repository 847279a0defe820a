package controller

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/dsrhaslab/sdscale/internal/rpc"
	"github.com/dsrhaslab/sdscale/internal/stage"
	"github.com/dsrhaslab/sdscale/internal/transport/simnet"
	"github.com/dsrhaslab/sdscale/internal/wire"
	"github.com/dsrhaslab/sdscale/internal/workload"
)

// issueOutcome is what a run of cycles leaves behind, for comparing runs.
type issueOutcome struct {
	rules              []wire.Rule
	collects, enforces []uint64
	callErrors         uint64
	quarantined        []uint64
	quarantines        uint64
	inflightPeak       int64
}

// fleetStage is a stage of runIssueFleet's fleet: a virtual stage or a
// refuser.
type fleetStage interface {
	Info() stage.Info
	LastRule() (wire.Rule, bool)
	Counters() (collects, enforces uint64)
	Close() error
}

// refuser stands in for a stage: it reports a constant demand and refuses
// its first enforce, so the controller withdraws that batch from the
// child's rule cache and, under delta enforcement, sends it again.
type refuser struct {
	srv                *rpc.Server
	info               stage.Info
	demand             wire.Rates
	mu                 sync.Mutex
	rule               wire.Rule
	collects, enforces uint64
}

func startRefuser(t *testing.T, n *simnet.Net, info stage.Info, demand wire.Rates) *refuser {
	t.Helper()
	r := &refuser{info: info, demand: demand}
	srv, err := rpc.Serve(n.Host(fmt.Sprintf("stage-%d", info.ID)), ":0", rpc.HandlerFunc(r.serve), rpc.ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	r.srv, r.info.Addr = srv, srv.Addr().String()
	return r
}

func (r *refuser) serve(_ *rpc.Peer, req wire.Message) (wire.Message, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	switch m := req.(type) {
	case *wire.Collect:
		r.collects++
		return &wire.CollectReply{Cycle: m.Cycle, Reports: []wire.StageReport{{
			StageID: r.info.ID, JobID: r.info.JobID, Demand: r.demand, Usage: r.demand}}}, nil
	case *wire.Enforce:
		if r.enforces++; r.enforces == 1 {
			return nil, errors.New("synthetic enforce failure")
		}
		r.rule = m.Rules[len(m.Rules)-1]
		return &wire.EnforceAck{Cycle: m.Cycle, Applied: uint32(len(m.Rules))}, nil
	}
	return nil, fmt.Errorf("stage %d: unexpected %s", r.info.ID, req.Type())
}

func (r *refuser) Info() stage.Info { return r.info }

func (r *refuser) LastRule() (wire.Rule, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.rule, r.enforces > 1
}

func (r *refuser) Counters() (collects, enforces uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.collects, r.enforces
}

func (r *refuser) Close() error { return r.srv.Close() }

// runIssueFleet runs a flat fleet of count stages with distinct demands at
// GOMAXPROCS procs: two healthy cycles, then dead's stages stop answering
// and four more cycles trip their breakers. Probes never run, so the outcome
// depends only on the calls the cycles issued. The stages at refuse are
// refusers; with any of them the controller diffs its enforces
// (DeltaEnforcement). After every cycle no call is left in flight.
func runIssueFleet(t *testing.T, procs, count int, dead, refuse []int) issueOutcome {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	n := fastNet()
	stages := make([]fleetStage, count)
	for i := range stages {
		info := stage.Info{ID: uint64(i + 1), JobID: uint64(i%7 + 1), Weight: float64(i%3 + 1)}
		demand := wire.Rates{float64(50 + i%41), float64(5 + i%13)}
		if slices.Contains(refuse, i) {
			stages[i] = startRefuser(t, n, info, demand)
			continue
		}
		v, err := stage.StartVirtual(stage.Config{
			ID:        info.ID,
			JobID:     info.JobID,
			Weight:    info.Weight,
			Generator: workload.Constant{Rates: demand},
			Network:   n.Host(fmt.Sprintf("stage-%d", info.ID)),
		})
		if err != nil {
			t.Fatal(err)
		}
		stages[i] = v
	}
	t.Cleanup(func() {
		for _, v := range stages {
			v.Close()
		}
	})
	g, err := StartGlobal(GlobalConfig{
		Network:          n.Host("global"),
		Capacity:         wire.Rates{float64(40 * count), float64(6 * count)},
		MaxFailures:      3,
		ProbeInterval:    time.Hour,
		DeltaEnforcement: len(refuse) > 0,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { g.Close() })
	ctx := context.Background()
	for _, v := range stages {
		if err := g.AddStage(ctx, v.Info()); err != nil {
			t.Fatalf("AddStage: %v", err)
		}
	}
	for cycle := 0; cycle < 6; cycle++ {
		if cycle == 2 {
			for _, i := range dead {
				stages[i].Close()
			}
		}
		if _, err := g.RunCycle(ctx); err != nil {
			t.Fatalf("cycle %d: %v", cycle, err)
		}
		if c, e := g.pipe.CollectInFlight.Current(), g.pipe.EnforceInFlight.Current(); c != 0 || e != 0 {
			t.Fatalf("cycle %d left %d collects and %d enforces in flight", cycle, c, e)
		}
	}
	var out issueOutcome
	for _, v := range stages {
		rule, _ := v.LastRule()
		c, e := v.Counters()
		out.rules = append(out.rules, rule)
		out.collects = append(out.collects, c)
		out.enforces = append(out.enforces, e)
	}
	st := g.Stats()
	out.callErrors, out.quarantines = st.CallErrors, st.Faults.Quarantines
	out.quarantined = slices.Clone(st.QuarantinedIDs)
	slices.Sort(out.quarantined)
	out.inflightPeak = st.Pipeline.CollectInFlightPeak
	return out
}

// sameIssueOutcome fails t unless the two runs left the same rule on every
// stage, the same collect and enforce counts, and the same breaker outcomes.
func sameIssueOutcome(t *testing.T, serial, split issueOutcome) {
	t.Helper()
	for i := range serial.rules {
		if serial.rules[i] != split.rules[i] {
			t.Fatalf("stage %d holds %+v after serial issue, %+v after split issue", i+1, serial.rules[i], split.rules[i])
		}
		if serial.collects[i] != split.collects[i] || serial.enforces[i] != split.enforces[i] {
			t.Fatalf("stage %d served %d collects and %d enforces after serial issue, %d and %d after split issue",
				i+1, serial.collects[i], serial.enforces[i], split.collects[i], split.enforces[i])
		}
	}
	if serial.callErrors != split.callErrors || serial.quarantines != split.quarantines ||
		!slices.Equal(serial.quarantined, split.quarantined) {
		t.Fatalf("breaker outcomes differ: serial %d call errors, %d quarantines, %v quarantined; split %d, %d, %v",
			serial.callErrors, serial.quarantines, serial.quarantined,
			split.callErrors, split.quarantines, split.quarantined)
	}
}

// TestIssueSplitMatchesSerial: the pipelined issue loop split across issuers
// sends the same calls as the serial loop and reaches the same outcome: the
// same rule on every stage, the same collect and enforce counts, and the
// same breaker outcomes for the stages that stopped answering. The fleet is
// four issuers' worth of children, so at GOMAXPROCS 1 the loop is serial and
// at GOMAXPROCS 4 it splits four ways, with one dead stage in each range.
//
// Each issuer harvests its own range, so split ranges are in flight together
// only as far as their issuers overlap: the split peak is at least one
// range and at most the serial peak, the whole fleet.
func TestIssueSplitMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("two fleets of four issuers' worth of stages")
	}
	const count = 4 * parallelIssueMin
	dead := []int{3, parallelIssueMin + 5, 2*parallelIssueMin + 7, count - 1}
	serial := runIssueFleet(t, 1, count, dead, nil)
	split := runIssueFleet(t, 4, count, dead, nil)
	sameIssueOutcome(t, serial, split)
	if len(serial.quarantined) != len(dead) {
		t.Errorf("%d stages quarantined, want the %d dead ones", len(serial.quarantined), len(dead))
	}
	if split.inflightPeak < count/4 || split.inflightPeak > serial.inflightPeak {
		t.Errorf("in-flight peak %d split, want between the largest range, %d, and the serial peak, %d",
			split.inflightPeak, count/4, serial.inflightPeak)
	}
}

// TestIssueSplitDeltaMatchesSerial: under delta enforcement every issuer's
// range holds a stage whose first enforce fails, so every issuer withdraws a
// batch from its child's rule cache while it harvests, and the next cycle
// sends that batch again. Split four ways, the fleet reaches the same rules,
// counts and breaker outcomes as the serial loop.
func TestIssueSplitDeltaMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("two fleets of four issuers' worth of stages")
	}
	const count = 4 * parallelIssueMin
	dead := []int{3, 2*parallelIssueMin + 7}
	refuse := []int{11, parallelIssueMin + 5, 2*parallelIssueMin + 9, count - 1}
	serial := runIssueFleet(t, 1, count, dead, refuse)
	split := runIssueFleet(t, 4, count, dead, refuse)
	sameIssueOutcome(t, serial, split)
	for _, i := range refuse {
		if e := serial.enforces[i]; e < 2 {
			t.Errorf("refuser %d saw %d enforces, want its refused batch sent again", i+1, e)
		}
	}
	if want := uint64(len(refuse)); serial.callErrors < want {
		t.Errorf("%d call errors, want at least one per refuser (%d)", serial.callErrors, want)
	}
}

// TestInlineControllersKeepServingGoroutines: stages answer an untimed
// simnet connection inline, but a controller's handler may run a whole
// sub-cycle (an aggregator's Collect does), so an aggregator's and a
// global's servers keep one pump per connection. A client on an untimed
// simnet connection runs none.
func TestInlineControllersKeepServingGoroutines(t *testing.T) {
	serving := func() int {
		buf := make([]byte, 1<<20)
		buf = buf[:runtime.Stack(buf, true)]
		return bytes.Count(buf, []byte("rpc.pump("))
	}
	// Earlier tests' servers are closed, but their goroutines may still be
	// on their way out.
	deadline := time.Now().Add(5 * time.Second)
	for serving() != 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	base := serving()
	n := fastNet()
	const aggs = 3
	stages := startStages(t, n, 12, 2, wire.Rates{100, 10})
	g, _ := buildHierarchy(t, n, stages, aggs, GlobalConfig{Capacity: wire.Rates{1000, 100}})
	if _, err := g.RunCycle(context.Background()); err != nil {
		t.Fatal(err)
	}
	cli, err := rpc.Dial(context.Background(), n.Host("probe"), g.Addr(), rpc.DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	_, _ = cli.Call(context.Background(), &wire.Heartbeat{}) // any answer will do
	// One per aggregator (the global's connection to it) and one for the
	// probe's connection to the global; none for the 12 stages.
	want := aggs + 1
	deadline = time.Now().Add(5 * time.Second)
	for serving()-base != want && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if got := serving() - base; got != want {
		t.Errorf("%d pumps, want %d: one per controller connection, none per stage", got, want)
	}
}

package controller

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"

	"github.com/dsrhaslab/sdscale/internal/rpc"
	"github.com/dsrhaslab/sdscale/internal/stage"
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

// runIssueFleet runs a flat fleet of count stages with distinct demands at
// GOMAXPROCS procs: two healthy cycles, then dead's stages stop answering
// and four more cycles trip their breakers. Probes never run, so the outcome
// depends only on the calls the cycles issued.
func runIssueFleet(t *testing.T, procs, count int, dead []int) issueOutcome {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	n := fastNet()
	stages := make([]*stage.Virtual, count)
	for i := range stages {
		v, err := stage.StartVirtual(stage.Config{
			ID:        uint64(i + 1),
			JobID:     uint64(i%7 + 1),
			Weight:    float64(i%3 + 1),
			Generator: workload.Constant{Rates: wire.Rates{float64(50 + i%41), float64(5 + i%13)}},
			Network:   n.Host(fmt.Sprintf("stage-%d", i+1)),
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
	g := buildFlat(t, n, stages, GlobalConfig{
		Capacity:      wire.Rates{float64(40 * count), float64(6 * count)},
		MaxFailures:   3,
		ProbeInterval: time.Hour,
	})
	ctx := context.Background()
	for cycle := 0; cycle < 6; cycle++ {
		if cycle == 2 {
			for _, i := range dead {
				stages[i].Close()
			}
		}
		if _, err := g.RunCycle(ctx); err != nil {
			t.Fatalf("cycle %d: %v", cycle, err)
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

// TestIssueSplitMatchesSerial: the pipelined issue loop split across issuers
// sends the same calls as the serial loop and reaches the same outcome: the
// same rule on every stage, the same collect and enforce counts, and the
// same breaker outcomes for the stages that stopped answering. The fleet is
// four issuers' worth of children, so at GOMAXPROCS 1 the loop is serial and
// at GOMAXPROCS 4 it splits four ways, with one dead stage in each range.
func TestIssueSplitMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("two fleets of four issuers' worth of stages")
	}
	const count = 4 * parallelIssueMin
	dead := []int{3, parallelIssueMin + 5, 2*parallelIssueMin + 7, count - 1}
	serial := runIssueFleet(t, 1, count, dead)
	split := runIssueFleet(t, 4, count, dead)
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
	if len(serial.quarantined) != len(dead) {
		t.Errorf("%d stages quarantined, want the %d dead ones", len(serial.quarantined), len(dead))
	}
	if serial.inflightPeak != split.inflightPeak {
		t.Errorf("in-flight peak %d serial, %d split", serial.inflightPeak, split.inflightPeak)
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

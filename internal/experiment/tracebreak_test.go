package experiment

import (
	"context"
	"strings"
	"testing"

	"github.com/dsrhaslab/sdscale/internal/cluster"
	"github.com/dsrhaslab/sdscale/internal/controller"
	"github.com/dsrhaslab/sdscale/internal/telemetry"
)

func TestTraceBreakAtReducedScale(t *testing.T) {
	o := testOptions(0.01)
	res, err := TraceBreak(context.Background(), o)
	if err != nil {
		t.Fatalf("TraceBreak: %v", err)
	}
	if err := CheckTraceBreak(res); err != nil {
		t.Fatalf("CheckTraceBreak: %v", err)
	}
	if got, want := len(res.Rows), 2*len(TraceBreakNodes)+3; got != want {
		t.Fatalf("got %d rows, want %d", got, want)
	}
	var sawIncr bool
	for _, r := range res.Rows {
		if r.Incremental {
			// A quiesced incremental run makes almost no calls; its
			// decomposition floors don't apply, only the suppression does.
			sawIncr = true
			if r.SuppressedCollects == 0 {
				t.Errorf("%s: incremental row suppressed no collects: %+v", r.Name, r)
			}
			continue
		}
		if r.Marshal <= 0 || r.Dispatch <= 0 || r.Wait <= 0 {
			t.Errorf("%s/%v: empty decomposition: %+v", r.Name, r.Mode, r)
		}
		if r.ServerHandler <= 0 {
			t.Errorf("%s/%v: empty stage-side decomposition: %+v", r.Name, r.Mode, r)
		}
	}
	if !sawIncr {
		t.Error("no incremental row in the tracebreak matrix")
	}

	var sb strings.Builder
	o.Out = &sb
	PrintTraceBreak(o, res)
	out := sb.String()
	for _, want := range []string{"marshal%", "dispatch%", "wait×", "flat-", "hierarchical-"} {
		if !strings.Contains(out, want) {
			t.Errorf("PrintTraceBreak output missing %q:\n%s", want, out)
		}
	}
}

func TestCheckTraceBreakRejectsDegenerate(t *testing.T) {
	if err := CheckTraceBreak(TraceBreakResult{}); err == nil {
		t.Error("empty result passed")
	}
	good := TraceBreakRow{
		Name: "flat-10", Topology: cluster.Flat, Mode: controller.FanOutPipelined,
		Nodes: 10, Cycles: 5, Wall: 100, Calls: 100, Marshal: 10, Dispatch: 10,
		Wait: 500, ServerCalls: 100, SharedSends: 50, SharedEncodes: 5,
		ComputeWorkers: 1,
		Arena:          telemetry.ArenaSnapshot{Generation: 5, Takes: 50, Reuses: 45, Grows: 2},
	}
	cases := map[string]func(*TraceBreakRow){
		"no cycles":          func(r *TraceBreakRow) { r.Cycles = 0 },
		"missing calls":      func(r *TraceBreakRow) { r.Calls = 10 },
		"errors":             func(r *TraceBreakRow) { r.Errors = 1 },
		"negative wait":      func(r *TraceBreakRow) { r.Wait = -1 },
		"missing srv calls":  func(r *TraceBreakRow) { r.ServerCalls = 10 },
		"no broadcasts":      func(r *TraceBreakRow) { r.SharedSends, r.SharedEncodes = 0, 0 },
		"re-encoding":        func(r *TraceBreakRow) { r.SharedEncodes = r.SharedSends },
		"no arena activity":  func(r *TraceBreakRow) { r.Arena = telemetry.ArenaSnapshot{} },
		"no arena reuse":     func(r *TraceBreakRow) { r.Arena.Reuses = 0 },
		"no compute workers": func(r *TraceBreakRow) { r.ComputeWorkers = 0 },
	}
	for name, mutate := range cases {
		r := good
		mutate(&r)
		if err := CheckTraceBreak(TraceBreakResult{Rows: []TraceBreakRow{r}}); err == nil {
			t.Errorf("%s: degenerate row passed", name)
		}
	}
	if err := CheckTraceBreak(TraceBreakResult{Rows: []TraceBreakRow{good}}); err != nil {
		t.Errorf("good row rejected: %v", err)
	}
	// A pipelined row overlapping far less than its blocking twin means
	// tracing caught the dispatch path not pipelining.
	blocking := good
	blocking.Mode = controller.FanOutBlocking
	blocking.Wait = 5000
	if err := CheckTraceBreak(TraceBreakResult{Rows: []TraceBreakRow{good, blocking}}); err == nil {
		t.Error("non-pipelining pair passed")
	}
}

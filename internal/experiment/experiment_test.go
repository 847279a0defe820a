package experiment

import (
	"context"
	"strings"
	"testing"
	"time"

	"github.com/dsrhaslab/sdscale/internal/cluster"
	"github.com/dsrhaslab/sdscale/internal/telemetry"
)

// testOptions shrinks experiments so the suite stays fast while keeping the
// shapes detectable: node counts are scaled down 10-20x and measurement
// windows to a few hundred milliseconds.
func testOptions(scale float64) Options {
	return Options{
		Scale:       scale,
		Warmup:      2,
		MinCycles:   8,
		MinDuration: 400 * time.Millisecond,
		MaxDuration: 30 * time.Second,
	}
}

// withShapeRetry runs an experiment and its shape check, retrying the whole
// measurement once if the check fails: at test scale a single OS stall can
// inflate one configuration several-fold, which is measurement noise, not a
// logic regression. A genuine shape break fails twice.
func withShapeRetry(t *testing.T, name string,
	run func() ([]Result, error), check func([]Result) error) []Result {
	t.Helper()
	var results []Result
	var err error
	for attempt := 1; attempt <= 2; attempt++ {
		results, err = run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		cerr := check(results)
		if cerr == nil {
			return results
		}
		for _, r := range results {
			t.Logf("%s attempt %d: %s total %v", name, attempt, r.Name, r.Latency.Total.Mean)
		}
		if attempt == 2 {
			t.Fatalf("%s shape failed twice: %v", name, cerr)
		}
		t.Logf("%s: shape check failed (%v), retrying once", name, cerr)
	}
	return results
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Scale != 1 || o.Warmup != 2 || o.MinCycles != 5 || o.Jobs != 16 {
		t.Errorf("defaults = %+v", o)
	}
	if o.Net == nil {
		t.Fatal("Net not defaulted")
	}
	if o.Net.ProcTime <= 0 {
		t.Error("default net has no processing model")
	}
	bad := Options{Scale: 7}.withDefaults()
	if bad.Scale != 1 {
		t.Errorf("out-of-range scale = %g", bad.Scale)
	}
}

func TestScaled(t *testing.T) {
	o := Options{Scale: 0.01}.withDefaults()
	if got := o.scaled(50); got != 2 {
		t.Errorf("scaled(50) at 0.01 = %d, want floor of 2", got)
	}
	if got := o.scaled(10000); got != 100 {
		t.Errorf("scaled(10000) at 0.01 = %d, want 100", got)
	}
}

func TestFig4ShapeAtReducedScale(t *testing.T) {
	o := testOptions(0.05) // 2, 25, 62, 125 nodes
	results, err := Fig4(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(FlatNodeCounts) {
		t.Fatalf("results = %d, want %d", len(results), len(FlatNodeCounts))
	}
	if raceEnabled {
		t.Log("race detector active: skipping timing-shape assertions")
	} else {
		results = withShapeRetry(t, "fig4",
			func() ([]Result, error) { return Fig4(context.Background(), o) },
			CheckFig4Shape)
		if err := CheckTable2Shape(results); err != nil {
			t.Fatal(err)
		}
	}
	// Renderers must mention every node count.
	var b strings.Builder
	o.Out = &b
	PrintFig4(o, results)
	PrintTable2(o, results)
	out := b.String()
	for _, want := range []string{"Fig. 4", "Table II", "collect", "CPU (%)"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestFig5ShapeAtReducedScale(t *testing.T) {
	o := testOptions(0.05) // 500 nodes, aggregators 4..20
	// Keep stages-per-aggregator well above the job count, as at paper
	// scale (2,500 stages vs 16 jobs): Table III's TX > RX asymmetry at
	// the global controller exists because per-stage rule batches dwarf
	// per-job aggregates.
	o.Jobs = 4
	results, err := Fig5(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(HierAggregatorCounts) {
		t.Fatalf("results = %d", len(results))
	}
	if raceEnabled {
		t.Log("race detector active: skipping timing-shape assertions")
	} else {
		results = withShapeRetry(t, "fig5",
			func() ([]Result, error) { return Fig5(context.Background(), o) },
			CheckFig5Shape)
		if err := CheckTable3Shape(results); err != nil {
			for _, r := range results {
				t.Logf("%s: agg tx=%.3f mem=%d global tx=%.3f rx=%.3f", r.Name,
					r.Aggregator.TxMBps, r.Aggregator.MemBytes, r.Global.TxMBps, r.Global.RxMBps)
			}
			t.Fatal(err)
		}
	}
	var b strings.Builder
	o.Out = &b
	PrintFig5(o, results)
	PrintTable3(o, results)
	if !strings.Contains(b.String(), "Table III") {
		t.Error("table3 renderer output missing")
	}
}

func TestFig6ShapeAtReducedScale(t *testing.T) {
	o := testOptions(0.2) // 500 nodes
	results, err := Fig6(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	if raceEnabled {
		t.Log("race detector active: skipping timing-shape assertions")
	} else {
		results = withShapeRetry(t, "fig6",
			func() ([]Result, error) { return Fig6(context.Background(), o) },
			CheckFig6Shape)
		if err := CheckTable4Shape(results); err != nil {
			for _, r := range results {
				t.Logf("%s: global cpu=%.2f tx=%.3f agg cpu=%.2f", r.Name,
					r.Global.CPUPercent, r.Global.TxMBps, r.Aggregator.CPUPercent)
			}
			t.Fatal(err)
		}
	}
	var b strings.Builder
	o.Out = &b
	PrintFig6(o, results)
	PrintTable4(o, results)
	if !strings.Contains(b.String(), "Table IV") {
		t.Error("table4 renderer output missing")
	}
}

func TestFutureCoordinatedAtReducedScale(t *testing.T) {
	o := testOptions(0.05) // 500 nodes, 4 controllers each design
	results, err := FutureCoordinated(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	if raceEnabled {
		t.Log("race detector active: skipping timing-shape assertions")
	} else {
		// The latency-ratio claim needs paper scale (see
		// CheckFutureCoordinatedShape); at test scale assert structure.
		results = withShapeRetry(t, "coordflat",
			func() ([]Result, error) { return FutureCoordinated(context.Background(), o) },
			CheckFutureCoordinatedWorks)
	}
	var b strings.Builder
	o.Out = &b
	PrintFutureCoordinated(o, results)
	if !strings.Contains(b.String(), "coordinated") {
		t.Error("coordflat renderer output missing")
	}
}

func TestConnLimitProbe(t *testing.T) {
	o := testOptions(1)
	r, err := ConnLimit(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	if r.FlatMax != r.Limit {
		t.Errorf("FlatMax = %d, want %d", r.FlatMax, r.Limit)
	}
	if r.FlatFailedAt != r.Limit+1 {
		t.Errorf("FlatFailedAt = %d, want %d", r.FlatFailedAt, r.Limit+1)
	}
	if r.HierNodes <= r.Limit || r.HierAggregators < 4 {
		t.Errorf("hierarchy result = %+v", r)
	}
	var b strings.Builder
	o.Out = &b
	PrintConnLimit(o, r)
	if !strings.Contains(b.String(), "ErrConnLimit") {
		t.Error("connlimit renderer output missing")
	}
}

func TestPrintTable1(t *testing.T) {
	var b strings.Builder
	o := Options{Out: &b}
	PrintTable1(o)
	out := b.String()
	for _, want := range []string{"Frontier", "Fugaku", "hierarchical", "aggregators"} {
		if !strings.Contains(out, want) {
			t.Errorf("table1 output missing %q:\n%s", want, out)
		}
	}
}

func TestShapeCheckersRejectDegenerate(t *testing.T) {
	if err := CheckFig4Shape(nil); err == nil {
		t.Error("CheckFig4Shape(nil) passed")
	}
	if err := CheckFig5Shape(nil); err == nil {
		t.Error("CheckFig5Shape(nil) passed")
	}
	if err := CheckFig6Shape(nil); err == nil {
		t.Error("CheckFig6Shape(nil) passed")
	}
	if err := CheckTable2Shape(nil); err == nil {
		t.Error("CheckTable2Shape(nil) passed")
	}
	if err := CheckTable3Shape(nil); err == nil {
		t.Error("CheckTable3Shape(nil) passed")
	}
	if err := CheckTable4Shape(nil); err == nil {
		t.Error("CheckTable4Shape(nil) passed")
	}
	// A flat latency curve must fail fig4's monotonicity.
	flat := []Result{
		{Nodes: 50, Latency: summaryWithTotal(10 * time.Millisecond)},
		{Nodes: 500, Latency: summaryWithTotal(10 * time.Millisecond)},
	}
	if err := CheckFig4Shape(flat); err == nil {
		t.Error("CheckFig4Shape accepted a flat curve")
	}
}

// summaryWithTotal fabricates a summary whose total mean is d.
func summaryWithTotal(d time.Duration) (s telemetry.Summary) {
	s.Total.Mean = d
	return s
}

// TestCheckFig6ShapeComparesComputeMedians feeds CheckFig6Shape synthetic
// rounds: one slow hierarchical compute cycle must not fail it, a
// hierarchical compute that is typically 1.5x flat's must.
func TestCheckFig6ShapeComparesComputeMedians(t *testing.T) {
	summarize := func(total, compute time.Duration, outlier time.Duration) telemetry.Summary {
		r := telemetry.NewCycleRecorder()
		for i := 0; i < 9; i++ {
			r.Record(telemetry.Breakdown{Compute: compute, Total: total})
		}
		r.Record(telemetry.Breakdown{Compute: compute + outlier, Total: total + outlier})
		return r.Summarize()
	}
	flat := Result{Name: "flat", Latency: summarize(10*time.Millisecond, time.Millisecond, 0)}
	for _, tc := range []struct {
		name    string
		hier    telemetry.Summary
		wantErr bool
	}{
		{"one slow cycle", summarize(12*time.Millisecond, 500*time.Microsecond, 50*time.Millisecond), false},
		{"typically 1.5x", summarize(12*time.Millisecond, 1500*time.Microsecond, 0), true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := CheckFig6Shape([]Result{flat, {Name: "hier", Latency: tc.hier}})
			if (err != nil) != tc.wantErr {
				t.Errorf("CheckFig6Shape = %v, want error %v (hier compute mean %v, p50 %v)",
					err, tc.wantErr, tc.hier.Compute.Mean, tc.hier.Compute.P50)
			}
		})
	}
}

func TestRunOnePropagatesBuildErrors(t *testing.T) {
	o := testOptions(1).withDefaults()
	net := *o.Net
	net.MaxConnsPerHost = 3
	o.Net = &net
	_, err := o.runOne(context.Background(), "doomed", cluster.Flat, 10, 0)
	if err == nil {
		t.Fatal("runOne built a flat cluster past the connection limit")
	}
}

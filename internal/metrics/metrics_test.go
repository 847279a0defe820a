package metrics

import (
	"math"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"github.com/dsrhaslab/sdscale/internal/wire"
)

func TestRateCounterBasic(t *testing.T) {
	base := time.Now()
	c := NewRateCounter(time.Second, 10)
	// 100 events inside the window -> 100 ops/s.
	for i := 0; i < 100; i++ {
		c.Add(base.Add(time.Duration(i)*5*time.Millisecond), 1)
	}
	rate := c.Rate(base.Add(500 * time.Millisecond))
	if math.Abs(rate-100) > 1e-9 {
		t.Errorf("rate = %g, want 100", rate)
	}
}

func TestRateCounterExpiry(t *testing.T) {
	base := time.Now()
	c := NewRateCounter(time.Second, 10)
	c.Add(base, 50)
	// After more than a full window, everything expires.
	if rate := c.Rate(base.Add(2 * time.Second)); rate != 0 {
		t.Errorf("rate after expiry = %g, want 0", rate)
	}
}

func TestRateCounterPartialExpiry(t *testing.T) {
	base := time.Now()
	c := NewRateCounter(time.Second, 10)
	c.Add(base, 10)                           // bucket at t=0
	c.Add(base.Add(600*time.Millisecond), 20) // bucket at t=0.6
	// At t=1.05 the first bucket (age > 1s) has expired, second remains;
	// over a one-second window the rate is the event count.
	total := c.Rate(base.Add(1050 * time.Millisecond))
	if total != 20 {
		t.Errorf("total = %g, want 20", total)
	}
}

func TestRateCounterDefaults(t *testing.T) {
	c := NewRateCounter(0, 0) // both defaulted, must not panic
	now := time.Now()
	c.Add(now, 5)
	if c.Rate(now) != 5 {
		t.Error("defaulted counter lost events")
	}
}

func TestRateCounterConcurrent(t *testing.T) {
	c := NewRateCounter(time.Second, 10)
	now := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Add(now, 1)
			}
		}()
	}
	wg.Wait()
	if got := c.Rate(now); got != 8000 {
		t.Errorf("concurrent total = %g, want 8000", got)
	}
}

func TestAggregateByJob(t *testing.T) {
	reports := []wire.StageReport{
		{StageID: 1, JobID: 10, Demand: wire.Rates{100, 10}, Usage: wire.Rates{90, 9}},
		{StageID: 2, JobID: 20, Demand: wire.Rates{50, 5}, Usage: wire.Rates{50, 5}},
		{StageID: 3, JobID: 10, Demand: wire.Rates{200, 20}, Usage: wire.Rates{110, 11}},
	}
	jobs := AggregateByJob(reports)
	if len(jobs) != 2 {
		t.Fatalf("jobs = %d, want 2", len(jobs))
	}
	if jobs[0].JobID != 10 || jobs[1].JobID != 20 {
		t.Fatalf("jobs not sorted: %+v", jobs)
	}
	j10 := jobs[0]
	if j10.Stages != 2 {
		t.Errorf("job 10 stages = %d, want 2", j10.Stages)
	}
	if j10.Demand != (wire.Rates{300, 30}) {
		t.Errorf("job 10 demand = %v", j10.Demand)
	}
	if j10.Usage != (wire.Rates{200, 20}) {
		t.Errorf("job 10 usage = %v", j10.Usage)
	}
}

func TestAggregateByJobEmpty(t *testing.T) {
	if got := AggregateByJob(nil); got != nil {
		t.Errorf("AggregateByJob(nil) = %v, want nil", got)
	}
}

func TestMergeJobReports(t *testing.T) {
	a := []wire.JobReport{
		{JobID: 1, Stages: 2, Demand: wire.Rates{10, 1}, Usage: wire.Rates{8, 1}},
		{JobID: 2, Stages: 1, Demand: wire.Rates{5, 0}, Usage: wire.Rates{5, 0}},
	}
	b := []wire.JobReport{
		{JobID: 1, Stages: 3, Demand: wire.Rates{20, 2}, Usage: wire.Rates{15, 2}},
	}
	merged := MergeJobReports(a, b)
	if len(merged) != 2 {
		t.Fatalf("merged = %d jobs, want 2", len(merged))
	}
	if merged[0].JobID != 1 || merged[0].Stages != 5 {
		t.Errorf("job 1 = %+v", merged[0])
	}
	if merged[0].Demand != (wire.Rates{30, 3}) {
		t.Errorf("job 1 demand = %v", merged[0].Demand)
	}
}

// TestAggregationConservesTotalsProperty: aggregation must neither create
// nor destroy demand — the invariant that makes pre-aggregation at
// aggregators transparent to the control algorithm.
func TestAggregationConservesTotalsProperty(t *testing.T) {
	f := func(stageIDs []uint16, seed int64) bool {
		reports := make([]wire.StageReport, len(stageIDs))
		var wantDemand, wantUsage wire.Rates
		for i, id := range stageIDs {
			r := wire.StageReport{
				StageID: uint64(i),
				JobID:   uint64(id % 7),
				Demand:  wire.Rates{float64(id), float64(id % 13)},
				Usage:   wire.Rates{float64(id) / 2, float64(id%13) / 2},
			}
			reports[i] = r
			wantDemand = wantDemand.Add(r.Demand)
			wantUsage = wantUsage.Add(r.Usage)
		}
		var gotDemand, gotUsage wire.Rates
		var stages uint32
		for _, j := range AggregateByJob(reports) {
			gotDemand = gotDemand.Add(j.Demand)
			gotUsage = gotUsage.Add(j.Usage)
			stages += j.Stages
		}
		const eps = 1e-6
		return math.Abs(gotDemand[0]-wantDemand[0]) < eps &&
			math.Abs(gotDemand[1]-wantDemand[1]) < eps &&
			math.Abs(gotUsage[0]-wantUsage[0]) < eps &&
			math.Abs(gotUsage[1]-wantUsage[1]) < eps &&
			int(stages) == len(reports)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestMergeEquivalentToFlatAggregation: splitting reports across aggregators
// and merging must equal aggregating them all at once — the correctness
// argument for the hierarchical design's collect phase.
func TestMergeEquivalentToFlatAggregation(t *testing.T) {
	f := func(n uint8, split uint8, seed int64) bool {
		count := int(n)%50 + 2
		reports := make([]wire.StageReport, count)
		for i := range reports {
			reports[i] = wire.StageReport{
				StageID: uint64(i),
				JobID:   uint64((int(seed) + i*7) % 5),
				Demand:  wire.Rates{float64(i * 3), float64(i)},
				Usage:   wire.Rates{float64(i * 2), float64(i) / 2},
			}
		}
		cut := int(split) % count
		flat := AggregateByJob(reports)
		merged := MergeJobReports(AggregateByJob(reports[:cut]), AggregateByJob(reports[cut:]))
		if len(flat) != len(merged) {
			return false
		}
		for i := range flat {
			if flat[i].JobID != merged[i].JobID || flat[i].Stages != merged[i].Stages {
				return false
			}
			for c := range flat[i].Demand {
				if math.Abs(flat[i].Demand[c]-merged[i].Demand[c]) > 1e-6 || math.Abs(flat[i].Usage[c]-merged[i].Usage[c]) > 1e-6 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func BenchmarkAggregateByJob2500(b *testing.B) {
	reports := make([]wire.StageReport, 2500)
	for i := range reports {
		reports[i] = wire.StageReport{
			StageID: uint64(i),
			JobID:   uint64(i % 16),
			Demand:  wire.Rates{1000, 100},
			Usage:   wire.Rates{900, 90},
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		AggregateByJob(reports)
	}
}

package telemetry

import (
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestHistogramBasicStats(t *testing.T) {
	var h Histogram
	for _, d := range []time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 30 * time.Millisecond} {
		h.Record(d)
	}
	if h.Count() != 3 {
		t.Errorf("Count = %d, want 3", h.Count())
	}
	if mean := h.Mean(); mean != 20*time.Millisecond {
		t.Errorf("Mean = %v, want 20ms", mean)
	}
	// Population stddev of {10,20,30} is sqrt(200/3) ≈ 8.165ms.
	want := time.Duration(math.Sqrt(200.0/3.0) * float64(time.Millisecond))
	if sd := h.Stddev(); sd < want-time.Millisecond || sd > want+time.Millisecond {
		t.Errorf("Stddev = %v, want ~%v", sd, want)
	}
	if h.Min() != 10*time.Millisecond || h.Max() != 30*time.Millisecond {
		t.Errorf("Min/Max = %v/%v", h.Min(), h.Max())
	}
}

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if h.Mean() != 0 || h.Stddev() != 0 || h.Quantile(0.5) != 0 || h.Count() != 0 {
		t.Error("empty histogram returned nonzero stats")
	}
}

func TestHistogramNegativeDurations(t *testing.T) {
	var h Histogram
	h.Record(-time.Second) // clamps to zero, must not panic
	if h.Count() != 1 {
		t.Errorf("Count = %d, want 1", h.Count())
	}
	if h.Max() != 0 {
		t.Errorf("Max = %v, want 0", h.Max())
	}
}

func TestHistogramQuantileAccuracy(t *testing.T) {
	var h Histogram
	// Uniform 1..1000 µs.
	for i := 1; i <= 1000; i++ {
		h.Record(time.Duration(i) * time.Microsecond)
	}
	for _, tc := range []struct {
		q    float64
		want time.Duration
	}{
		{0.5, 500 * time.Microsecond},
		{0.95, 950 * time.Microsecond},
		{0.99, 990 * time.Microsecond},
		{1.0, 1000 * time.Microsecond},
	} {
		got := h.Quantile(tc.q)
		// Allow the histogram's ~7% bucket resolution.
		lo := time.Duration(float64(tc.want) * 0.93)
		hi := time.Duration(float64(tc.want) * 1.08)
		if got < lo || got > hi {
			t.Errorf("Quantile(%g) = %v, want within [%v, %v]", tc.q, got, lo, hi)
		}
	}
}

func TestHistogramQuantileClamped(t *testing.T) {
	var h Histogram
	h.Record(time.Millisecond)
	if got := h.Quantile(-1); got != h.Quantile(0) {
		t.Errorf("Quantile(-1) = %v", got)
	}
	if got := h.Quantile(2); got != h.Quantile(1) {
		t.Errorf("Quantile(2) = %v", got)
	}
}

func TestHistogramQuantileNeverExceedsMax(t *testing.T) {
	f := func(samplesUS []uint32) bool {
		if len(samplesUS) == 0 {
			return true
		}
		var h Histogram
		var max time.Duration
		for _, us := range samplesUS {
			d := time.Duration(us%10_000_000) * time.Microsecond
			h.Record(d)
			if d > max {
				max = d
			}
		}
		for _, q := range []float64{0, 0.25, 0.5, 0.9, 0.99, 1} {
			if h.Quantile(q) > max {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestHistogramQuantileMonotoneProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		var h Histogram
		for i := 0; i < int(n)+1; i++ {
			h.Record(time.Duration(rng.Int63n(int64(time.Minute))))
		}
		prev := time.Duration(-1)
		for q := 0.0; q <= 1.0; q += 0.05 {
			v := h.Quantile(q)
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestHistogramBucketRelativeError(t *testing.T) {
	// A single sample's quantile must be within ~8% of the sample.
	for _, d := range []time.Duration{
		1 * time.Microsecond, 41 * time.Millisecond, 103 * time.Millisecond, 7 * time.Second,
	} {
		var h Histogram
		h.Record(d)
		got := h.Quantile(0.5)
		if got < d || float64(got) > float64(d)*1.08 {
			t.Errorf("Quantile for single sample %v = %v (err %.1f%%)",
				d, got, 100*math.Abs(float64(got-d))/float64(d))
		}
	}
}

func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				h.Record(time.Millisecond)
			}
		}()
	}
	wg.Wait()
	if h.Count() != 8000 {
		t.Errorf("Count = %d, want 8000", h.Count())
	}
}

func TestHistogramReset(t *testing.T) {
	var h Histogram
	h.Record(time.Second)
	h.Reset()
	if h.Count() != 0 || h.Mean() != 0 || h.Max() != 0 {
		t.Error("Reset did not clear histogram")
	}
}

func TestCycleRecorder(t *testing.T) {
	r := NewCycleRecorder()
	for i := 0; i < 10; i++ {
		r.Record(Breakdown{
			Collect: 10 * time.Millisecond,
			Compute: 1 * time.Millisecond,
			Enforce: 20 * time.Millisecond,
			Total:   31 * time.Millisecond,
		})
	}
	if r.Cycles() != 10 {
		t.Errorf("Cycles = %d, want 10", r.Cycles())
	}
	s := r.Summarize()
	if s.Collect.Mean != 10*time.Millisecond {
		t.Errorf("collect mean = %v", s.Collect.Mean)
	}
	if s.Compute.Mean != time.Millisecond {
		t.Errorf("compute mean = %v", s.Compute.Mean)
	}
	if s.Enforce.Mean != 20*time.Millisecond {
		t.Errorf("enforce mean = %v", s.Enforce.Mean)
	}
	if s.Total.Mean != 31*time.Millisecond {
		t.Errorf("total mean = %v", s.Total.Mean)
	}
	if s.Total.Stddev != 0 {
		t.Errorf("stddev of constant series = %v", s.Total.Stddev)
	}
	if s.RelStddev() != 0 {
		t.Errorf("RelStddev = %g", s.RelStddev())
	}

	r.Reset()
	if r.Cycles() != 0 {
		t.Error("Reset did not clear recorder")
	}
}

func TestSummaryString(t *testing.T) {
	r := NewCycleRecorder()
	r.Record(Breakdown{Collect: time.Millisecond, Compute: time.Millisecond, Enforce: time.Millisecond, Total: 3 * time.Millisecond})
	out := r.Summarize().String()
	for _, want := range []string{"cycles: 1", "collect", "compute", "enforce", "total"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
}

func TestPhaseString(t *testing.T) {
	if PhaseCollect.String() != "collect" || PhaseTotal.String() != "total" {
		t.Error("phase names wrong")
	}
	if Phase(99).String() != "Phase(99)" {
		t.Errorf("unknown phase = %q", Phase(99).String())
	}
}

func TestMeanMatchesExactAverageProperty(t *testing.T) {
	f := func(samplesUS []uint16) bool {
		if len(samplesUS) == 0 {
			return true
		}
		var h Histogram
		var sum float64
		for _, us := range samplesUS {
			h.Record(time.Duration(us) * time.Microsecond)
			sum += float64(us)
		}
		want := sum / float64(len(samplesUS)) // µs
		got := float64(h.Mean()) / float64(time.Microsecond)
		return math.Abs(got-want) < 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func BenchmarkHistogramRecord(b *testing.B) {
	var h Histogram
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Record(time.Duration(i) * time.Microsecond)
	}
}

// TestCounterFoldsClosedShards: a Counter's total is every shard's count,
// whether the shard is open or closed — including counts added after the
// shard closed — and a nil Counter reads zero.
func TestCounterFoldsClosedShards(t *testing.T) {
	var c Counter
	shards := make([]Shard, 4)
	for i := range shards {
		c.Attach(&shards[i])
		shards[i].Add(uint64(10 * (i + 1)))
	}
	shards[1].Close()
	shards[1].Close() // idempotent
	shards[3].Close()
	shards[1].Add(7) // after Close: goes to the base word
	if got, want := c.Load(), uint64(10+20+30+40+7); got != want {
		t.Errorf("Load = %d, want %d", got, want)
	}
	var lone Shard // never attached: counts on its own
	lone.Add(3)
	lone.Close()
	var none *Counter
	none.Attach(&lone)
	if none.Load() != 0 {
		t.Error("nil Counter reads non-zero")
	}
}

// Package telemetry measures control-cycle latency: per-phase duration
// histograms with percentile queries, and the cycle recorder that produces
// the numbers behind the paper's Figures 4-6.
package telemetry

import (
	"fmt"
	"math"
	"math/bits"
	"strings"
	"sync"
	"time"
)

const (
	// subBucketBits sets histogram resolution: each power-of-two range is
	// split into 2^subBucketBits linear sub-buckets (~1.5% relative error).
	subBucketBits = 4
	subBuckets    = 1 << subBucketBits
	// maxExp covers durations up to ~2^40 ns (~18 minutes).
	maxExp      = 40
	bucketCount = (maxExp + 1) * subBuckets
)

// Histogram records durations with bounded relative error and constant
// memory. It is safe for concurrent use.
type Histogram struct {
	mu      sync.Mutex
	counts  [bucketCount]uint64
	n       uint64
	sum     float64 // seconds
	sumSq   float64 // seconds^2
	minSeen time.Duration
	maxSeen time.Duration
}

// bucketIndex maps a duration to its bucket.
func bucketIndex(d time.Duration) int {
	ns := uint64(d.Nanoseconds())
	if ns == 0 {
		return 0
	}
	exp := bits.Len64(ns) - 1
	if exp > maxExp {
		exp = maxExp
		ns = 1 << maxExp
	}
	var sub uint64
	if exp >= subBucketBits {
		sub = (ns >> (uint(exp) - subBucketBits)) & (subBuckets - 1)
	} else {
		sub = (ns << (subBucketBits - uint(exp))) & (subBuckets - 1)
	}
	return exp*subBuckets + int(sub)
}

// bucketUpper returns a representative (upper-bound) duration for bucket i.
func bucketUpper(i int) time.Duration {
	exp := i / subBuckets
	sub := i % subBuckets
	if exp == 0 {
		return time.Duration(sub + 1)
	}
	base := uint64(1) << uint(exp)
	step := base / subBuckets
	if step == 0 {
		step = 1
	}
	return time.Duration(base + uint64(sub+1)*step)
}

// Record adds one duration observation. Negative durations count as zero.
func (h *Histogram) Record(d time.Duration) {
	if d < 0 {
		d = 0
	}
	s := d.Seconds()
	i := bucketIndex(d)
	h.mu.Lock()
	h.counts[i]++
	h.n++
	h.sum += s
	h.sumSq += s * s
	if h.n == 1 || d < h.minSeen {
		h.minSeen = d
	}
	if d > h.maxSeen {
		h.maxSeen = d
	}
	h.mu.Unlock()
}

// Count returns the number of recorded observations.
func (h *Histogram) Count() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.n
}

// Mean returns the exact arithmetic mean of recorded durations.
func (h *Histogram) Mean() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.n == 0 {
		return 0
	}
	return time.Duration(math.Round(h.sum / float64(h.n) * float64(time.Second)))
}

// Stddev returns the exact population standard deviation.
func (h *Histogram) Stddev() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.n == 0 {
		return 0
	}
	mean := h.sum / float64(h.n)
	variance := h.sumSq/float64(h.n) - mean*mean
	if variance < 0 {
		variance = 0
	}
	return time.Duration(math.Round(math.Sqrt(variance) * float64(time.Second)))
}

// Min returns the smallest recorded duration.
func (h *Histogram) Min() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.minSeen
}

// Max returns the largest recorded duration.
func (h *Histogram) Max() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.maxSeen
}

// Quantile returns an upper bound for the q-quantile (0 <= q <= 1) with the
// histogram's bucket resolution.
func (h *Histogram) Quantile(q float64) time.Duration {
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.n == 0 {
		return 0
	}
	target := uint64(math.Ceil(q * float64(h.n)))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for i, c := range h.counts {
		cum += c
		if cum >= target {
			u := bucketUpper(i)
			if u > h.maxSeen {
				u = h.maxSeen
			}
			return u
		}
	}
	return h.maxSeen
}

// Reset discards all observations.
func (h *Histogram) Reset() {
	h.mu.Lock()
	h.counts = [bucketCount]uint64{}
	h.n = 0
	h.sum, h.sumSq = 0, 0
	h.minSeen, h.maxSeen = 0, 0
	h.mu.Unlock()
}

// Phase identifies one phase of a control cycle.
type Phase int

// The phases of a control cycle, in execution order (paper §II-B: collect
// metrics, compute the algorithm, enforce rules).
const (
	PhaseCollect Phase = iota
	PhaseCompute
	PhaseEnforce
	// PhaseTotal is the whole cycle, measured independently (it may exceed
	// the sum of the phases by bookkeeping overhead).
	PhaseTotal
	numPhases
)

// String returns the phase name used in reports.
func (p Phase) String() string {
	switch p {
	case PhaseCollect:
		return "collect"
	case PhaseCompute:
		return "compute"
	case PhaseEnforce:
		return "enforce"
	case PhaseTotal:
		return "total"
	}
	return fmt.Sprintf("Phase(%d)", int(p))
}

// Breakdown is one control cycle's phase timing.
type Breakdown struct {
	// Collect is the duration of the metric-collection phase.
	Collect time.Duration
	// Compute is the duration of the control-algorithm phase.
	Compute time.Duration
	// Enforce is the duration of the rule-enforcement phase.
	Enforce time.Duration
	// Total is the whole cycle's duration.
	Total time.Duration
}

// MergeMax folds concurrent per-shard breakdowns into one deployment-level
// breakdown: shards run their cycles in parallel, so the deployment's phase
// latency is the slowest shard's, not the sum. Zero-value inputs (a shard
// that skipped its cycle) merge as free.
func MergeMax(bs ...Breakdown) Breakdown {
	var out Breakdown
	for _, b := range bs {
		out.Collect = max(out.Collect, b.Collect)
		out.Compute = max(out.Compute, b.Compute)
		out.Enforce = max(out.Enforce, b.Enforce)
		out.Total = max(out.Total, b.Total)
	}
	return out
}

// CycleRecorder accumulates per-phase statistics across control cycles.
type CycleRecorder struct {
	phases [numPhases]Histogram
}

// NewCycleRecorder returns an empty recorder.
func NewCycleRecorder() *CycleRecorder { return &CycleRecorder{} }

// Record adds one cycle's breakdown.
func (r *CycleRecorder) Record(b Breakdown) {
	r.phases[PhaseCollect].Record(b.Collect)
	r.phases[PhaseCompute].Record(b.Compute)
	r.phases[PhaseEnforce].Record(b.Enforce)
	r.phases[PhaseTotal].Record(b.Total)
}

// Phase returns the histogram for one phase.
func (r *CycleRecorder) Phase(p Phase) *Histogram { return &r.phases[p] }

// Cycles returns the number of recorded cycles.
func (r *CycleRecorder) Cycles() uint64 { return r.phases[PhaseTotal].Count() }

// Reset discards all recorded cycles.
func (r *CycleRecorder) Reset() {
	for i := range r.phases {
		r.phases[i].Reset()
	}
}

// PhaseSummary is the per-phase statistics block of a Summary.
type PhaseSummary struct {
	// Mean is the arithmetic mean latency.
	Mean time.Duration
	// Stddev is the population standard deviation.
	Stddev time.Duration
	// P50, P95 and P99 are latency quantile upper bounds.
	P50, P95, P99 time.Duration
	// Min and Max are the observed extremes.
	Min, Max time.Duration
}

// Summary is a complete statistical digest of a recorder.
type Summary struct {
	// Cycles is the number of control cycles recorded.
	Cycles uint64
	// Collect, Compute, Enforce and Total summarize each phase.
	Collect, Compute, Enforce, Total PhaseSummary
}

// Summarize digests the recorder's current state.
func (r *CycleRecorder) Summarize() Summary {
	digest := func(h *Histogram) PhaseSummary {
		return PhaseSummary{
			Mean:   h.Mean(),
			Stddev: h.Stddev(),
			P50:    h.Quantile(0.50),
			P95:    h.Quantile(0.95),
			P99:    h.Quantile(0.99),
			Min:    h.Min(),
			Max:    h.Max(),
		}
	}
	return Summary{
		Cycles:  r.Cycles(),
		Collect: digest(&r.phases[PhaseCollect]),
		Compute: digest(&r.phases[PhaseCompute]),
		Enforce: digest(&r.phases[PhaseEnforce]),
		Total:   digest(&r.phases[PhaseTotal]),
	}
}

// RelStddev returns the total phase's standard deviation as a fraction of
// its mean (the paper reports this staying below 6%).
func (s Summary) RelStddev() float64 {
	if s.Total.Mean == 0 {
		return 0
	}
	return float64(s.Total.Stddev) / float64(s.Total.Mean)
}

// String renders the summary as an aligned human-readable table.
func (s Summary) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "cycles: %d\n", s.Cycles)
	fmt.Fprintf(&b, "%-8s %12s %12s %12s %12s %12s\n", "phase", "mean", "stddev", "p50", "p95", "p99")
	row := func(name string, p PhaseSummary) {
		fmt.Fprintf(&b, "%-8s %12v %12v %12v %12v %12v\n",
			name, p.Mean.Round(time.Microsecond), p.Stddev.Round(time.Microsecond),
			p.P50.Round(time.Microsecond), p.P95.Round(time.Microsecond), p.P99.Round(time.Microsecond))
	}
	row("collect", s.Collect)
	row("compute", s.Compute)
	row("enforce", s.Enforce)
	row("total", s.Total)
	return b.String()
}

// Package metrics provides the measurement primitives data-plane stages and
// controllers use: sliding-window rate counters, exponentially weighted
// moving averages, and the report-aggregation functions that implement the
// "aggregate metrics" role of aggregator controllers (paper §III-B).
package metrics

import (
	"cmp"
	"slices"
	"sync"
	"time"

	"github.com/dsrhaslab/sdscale/internal/wire"
)

// RateCounter measures an event rate over a sliding window using a ring of
// fixed-width buckets. It is safe for concurrent use and allocation-free on
// the Add path, since enforcing stages call it on every intercepted I/O
// operation.
type RateCounter struct {
	mu       sync.Mutex
	buckets  []float64
	width    time.Duration
	lastTick time.Time
	cur      int
}

// NewRateCounter creates a counter with the given window split into n
// buckets. Resolution is window/n; shorter windows react faster, longer
// windows smooth bursts.
func NewRateCounter(window time.Duration, n int) *RateCounter {
	if n <= 0 {
		n = 10
	}
	if window <= 0 {
		window = time.Second
	}
	return &RateCounter{
		buckets:  make([]float64, n),
		width:    window / time.Duration(n),
		lastTick: time.Now(),
	}
}

// advance rotates the ring forward to now, zeroing expired buckets.
// Callers must hold mu.
func (c *RateCounter) advance(now time.Time) {
	elapsed := now.Sub(c.lastTick)
	if elapsed < c.width {
		return
	}
	steps := int(elapsed / c.width)
	if steps >= len(c.buckets) {
		for i := range c.buckets {
			c.buckets[i] = 0
		}
		c.cur = 0
		c.lastTick = now
		return
	}
	for i := 0; i < steps; i++ {
		c.cur = (c.cur + 1) % len(c.buckets)
		c.buckets[c.cur] = 0
	}
	c.lastTick = c.lastTick.Add(time.Duration(steps) * c.width)
}

// Add records n events at time now.
func (c *RateCounter) Add(now time.Time, n float64) {
	c.mu.Lock()
	c.advance(now)
	c.buckets[c.cur] += n
	c.mu.Unlock()
}

// Rate returns the average event rate per second over the window ending at
// now.
func (c *RateCounter) Rate(now time.Time) float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.advance(now)
	var total float64
	for _, b := range c.buckets {
		total += b
	}
	window := c.width * time.Duration(len(c.buckets))
	return total / window.Seconds()
}

// AggregateByJob sums per-stage reports into per-job aggregates, the
// transformation an aggregator controller applies before replying to the
// global controller. The result is sorted by JobID so payloads are
// deterministic.
func AggregateByJob(reports []wire.StageReport) []wire.JobReport {
	return new(JobSums).ByJob(reports)
}

// MergeJobReports folds per-job aggregates from multiple aggregators into
// one per-job view, the global controller's input to the control algorithm.
func MergeJobReports(groups ...[]wire.JobReport) []wire.JobReport {
	return new(JobSums).Merge(groups...)
}

// JobSums computes AggregateByJob and MergeJobReports into memory it keeps
// across calls, for callers that aggregate every control cycle: after the
// first call a steady job population allocates nothing. A result is valid
// until the next call on the same JobSums, which is not safe for concurrent
// use. Each job's rows are summed in input order, so the sums match the
// allocating forms bit for bit.
type JobSums struct {
	slot map[uint64]int // JobID → index in rows
	rows []wire.JobReport
}

// ByJob is AggregateByJob into s's memory.
func (s *JobSums) ByJob(reports []wire.StageReport) []wire.JobReport {
	if len(reports) == 0 {
		return nil
	}
	s.reset()
	for i := range reports {
		r := &reports[i]
		j := s.row(r.JobID)
		j.Stages++
		j.Demand = j.Demand.Add(r.Demand)
		j.Usage = j.Usage.Add(r.Usage)
	}
	return s.sorted()
}

// Merge is MergeJobReports into s's memory.
func (s *JobSums) Merge(groups ...[]wire.JobReport) []wire.JobReport {
	s.reset()
	for _, g := range groups {
		for i := range g {
			r := &g[i]
			j := s.row(r.JobID)
			j.Stages += r.Stages
			j.Demand = j.Demand.Add(r.Demand)
			j.Usage = j.Usage.Add(r.Usage)
		}
	}
	return s.sorted()
}

func (s *JobSums) reset() {
	if s.slot == nil {
		s.slot = make(map[uint64]int)
	}
	clear(s.slot)
	s.rows = s.rows[:0]
}

// row returns jobID's accumulator, appending a zero one on first sight.
func (s *JobSums) row(jobID uint64) *wire.JobReport {
	i, ok := s.slot[jobID]
	if !ok {
		i = len(s.rows)
		s.slot[jobID] = i
		s.rows = append(s.rows, wire.JobReport{JobID: jobID})
	}
	return &s.rows[i]
}

func (s *JobSums) sorted() []wire.JobReport {
	slices.SortFunc(s.rows, func(a, b wire.JobReport) int { return cmp.Compare(a.JobID, b.JobID) })
	return s.rows
}

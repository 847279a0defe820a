package controller

import (
	"runtime"
	"sort"
	"sync"

	"github.com/dsrhaslab/sdscale/internal/controlalg"
	"github.com/dsrhaslab/sdscale/internal/cyclemem"
	"github.com/dsrhaslab/sdscale/internal/metrics"
	"github.com/dsrhaslab/sdscale/internal/rpc"
	"github.com/dsrhaslab/sdscale/internal/telemetry"
	"github.com/dsrhaslab/sdscale/internal/wire"
)

// cycleMem holds a controller role's per-cycle slabs, all tied to its arena:
// one generation per RunCycle, so a steady-state cycle draws every buffer
// from retained capacity and allocates nothing.
type cycleMem struct {
	replies    cyclemem.Slab[*wire.CollectReply]
	aggReplies cyclemem.Slab[wire.Message] // hierarchical collect slots
	reports    cyclemem.Slab[wire.StageReport]
	allocOf    cyclemem.Slab[wire.Rates]
	ruleBuf    cyclemem.Slab[wire.Rule]
	casts      cyclemem.Slab[wildcast]
	targets    cyclemem.Slab[*child]
	enfBuf     cyclemem.Slab[wire.Enforce]
	calls      cyclemem.Slab[*rpc.Call]
	table      cyclemem.RuleTable
	// The hierarchical global's per-aggregator slots.
	groups  cyclemem.Slab[[]wire.JobReport]
	batches cyclemem.Slab[[]wire.Rule]
	budgets cyclemem.Slab[[]wire.JobBudget]
	budget  cyclemem.Slab[wire.JobBudget]
	counts  cyclemem.Slab[int]
	dlgBuf  cyclemem.Slab[wire.Delegate]
	// jobs holds the cycle's per-job sums (AggregateByJob or
	// MergeJobReports), valid until the role's next cycle sums again.
	jobs metrics.JobSums
}

// jobTable is the allocation state of a role that runs the control
// algorithm (the Global): the algorithm, the live capacity it allocates
// against and the per-job QoS weights. An Aggregator never allocates and
// holds none. mu guards capacity and weights; a role that holds its own
// mutex takes it before mu, never after.
type jobTable struct {
	algo controlalg.Algorithm

	mu       sync.Mutex
	capacity wire.Rates
	weights  map[uint64]float64

	// inputs and limits are allocate's buffers, reused every cycle by the
	// goroutine that runs the role's cycles.
	inputs []controlalg.JobInput
	limits []wire.Rates
}

func (t *jobTable) init(algo controlalg.Algorithm, capacity wire.Rates) {
	t.algo, t.capacity, t.weights = algo, capacity, make(map[uint64]float64)
}

// allocate runs the algorithm over per-job rows (sorted by JobID, as
// metrics.AggregateByJob and MergeJobReports return them) and returns each
// row's allocation, index-aligned with rows, in a buffer reused by the
// next allocate. The algorithm runs outside mu.
func (t *jobTable) allocate(rows []wire.JobReport) []wire.Rates {
	t.inputs = t.inputs[:0]
	t.mu.Lock()
	for _, j := range rows {
		t.inputs = append(t.inputs, controlalg.JobInput{JobID: j.JobID, Weight: t.weights[j.JobID], Demand: j.Demand, Stages: j.Stages})
	}
	capacity := t.capacity
	t.mu.Unlock()
	allocs := t.algo.Allocate(t.inputs, capacity)

	t.limits = t.limits[:0]
	for i := range t.inputs {
		t.limits = append(t.limits, allocs[i].Limit)
	}
	return t.limits
}

// setWeight records a job's weight, a non-positive one as the default 1,
// and returns the weight stored and whether it changed the table.
func (t *jobTable) setWeight(jobID uint64, weight float64) (stored float64, changed bool) {
	if weight <= 0 {
		weight = 1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	old, known := t.weights[jobID]
	t.weights[jobID] = weight
	return weight, !known || old != weight
}

// adoptWeights records replicated or recovered weights.
func (t *jobTable) adoptWeights(ws []wire.JobWeight) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, w := range ws {
		t.weights[w.JobID] = w.Weight
	}
}

// parallelComputeMin is the smallest per-worker report range worth a
// goroutine: below 2× this the rule emission runs inline. The kernel's
// per-report cost is tens of nanoseconds, so sharding only pays at
// thousands of reports.
const parallelComputeMin = 2048

// computeFlatRules runs the control algorithm over raw stage reports and
// splits each job's allocation across its stages proportionally to their
// observed demand (emitRules). The result lives in the cycle arena's rule
// table, valid until the next cycle begins. parallel=false (the blocking
// fan-out mode) pins the single-threaded emission the paper's prototype
// implies; the aggregation and allocation are serial in either mode.
func (g *Global) computeFlatRules(reports []wire.StageReport, parallel bool) *cyclemem.RuleTable {
	jobs := g.cyc.jobs.ByJob(reports)
	return emitRules(&g.cyc, &g.arena, g.pipe, reports, jobs, g.jobs.allocate(jobs), parallel)
}

// computeHierRules is the hierarchical compute over the aggregators' replies
// (index-aligned with children, nil where a child did not answer) and the
// quarantined aggregators' stale replies. Their per-job rows are merged and
// allocated, and each job's allocation is split uniformly across its stages:
// the global sees per-job sums, not per-stage demand (paper §III-B). Each
// child that answered gets its stages' rule batch or, delegated (§VI), one
// budget per job it serves: the per-stage share scaled by the job's stage
// count behind it. A child that did not answer gets neither.
func (g *Global) computeHierRules(children []*child, replies, stale []wire.Message) (batches [][]wire.Rule, budgets [][]wire.JobBudget) {
	groups := g.cyc.groups.Take(&g.arena, len(replies)+len(stale))[:0]
	for _, msgs := range [][]wire.Message{replies, stale} {
		for _, m := range msgs {
			groups = append(groups, jobRows(m))
		}
	}
	merged := g.cyc.jobs.Merge(groups...)
	allocs := g.jobs.allocate(merged)
	perStage := func(k int) wire.Rates { return controlalg.SplitUniform(allocs[k], int(merged[k].Stages)) }

	batches, budgets = g.cyc.batches.Take(&g.arena, len(children)), g.cyc.budgets.Take(&g.arena, len(children))
	for i, c := range children {
		if replies[i] == nil {
			continue
		}
		stages := c.stageList()
		if g.cfg.Delegated {
			counts := g.cyc.counts.Take(&g.arena, len(merged))
			for _, s := range stages {
				if k := jobSlot(merged, s.JobID); k >= 0 {
					counts[k]++
				}
			}
			budgets[i] = g.cyc.budget.Take(&g.arena, len(merged))[:0]
			for k, n := range counts {
				if n > 0 {
					budgets[i] = append(budgets[i], wire.JobBudget{JobID: merged[k].JobID, Limit: perStage(k).Scale(float64(n))})
				}
			}
			continue
		}
		batch := g.cyc.ruleBuf.Take(&g.arena, len(stages))[:0]
		for _, s := range stages {
			if k := jobSlot(merged, s.JobID); k >= 0 {
				batch = append(batch, wire.Rule{StageID: s.ID, JobID: s.JobID, Action: wire.ActionSetLimit, Limit: perStage(k)})
			}
		}
		batches[i] = batch
	}
	return batches, budgets
}

// jobRows returns an aggregator child's collect reply as per-job rows: a
// pre-aggregated reply as it is, a ForwardRaw reply aggregated here
// (charging this controller's CPU). Anything else has none.
func jobRows(m wire.Message) []wire.JobReport {
	switch r := m.(type) {
	case *wire.CollectAggReply:
		return r.Jobs
	case *wire.CollectReply:
		return metrics.AggregateByJob(r.Reports)
	}
	return nil
}

// computePeerRules is the compute kernel of a Global with fellows. allocs
// is the allocation of each merged job (mergeFellowViews), index-aligned
// with merged. Each job's allocation is split uniformly across its global
// stage population; this partition's share is that per-stage slice scaled
// by its own stage count, and the share splits across the partition's
// stages proportionally to demand — the uniform split → scale →
// proportional split chain, folded into the shared per-report kernel.
// ownJobs must be metrics.AggregateByJob(reports), and so a subset of
// merged.
func (g *Global) computePeerRules(reports []wire.StageReport, ownJobs, merged []wire.JobReport,
	allocs []wire.Rates, parallel bool) *cyclemem.RuleTable {
	shareOf := g.cyc.allocOf.Take(&g.arena, len(ownJobs))
	for j := range ownJobs {
		k := jobSlot(merged, ownJobs[j].JobID)
		shareOf[j] = controlalg.SplitUniform(allocs[k], int(merged[k].Stages)).
			Scale(float64(ownJobs[j].Stages))
	}
	return emitRules(&g.cyc, &g.arena, g.pipe, reports, ownJobs, shareOf, parallel)
}

// emitRules is the one split kernel: it fills the role's arena-backed rule
// table, report i's rule splitting its job's budget proportionally to the
// report's share of the job's total demand (even split across the job's
// stages for a zero-demand class). jobs must be metrics.AggregateByJob
// (reports) — sorted by JobID, each job's demand summed in report order —
// and budget[j] is job j's spendable allocation.
//
// The split is computed per report rather than per job. It performs the
// same float operations, in the same order, as controlalg's per-job
// proportional splitter: AggregateByJob has already summed each job's
// demand in report order, and the per-stage limit is alloc[c]·d[c]/total[c]
// (or alloc[c]/stages), so the two agree bit for bit. With no
// cross-report accumulation left, writes are index-disjoint and parallel
// mode shards the loop over disjoint report ranges: any worker count yields
// byte-identical rules.
func emitRules(cyc *cycleMem, arena *cyclemem.Arena, pipe *telemetry.PipelineStats,
	reports []wire.StageReport, jobs []wire.JobReport, budget []wire.Rates,
	parallel bool) *cyclemem.RuleTable {
	table := &cyc.table
	table.Reset(arena)
	slot := table.Slot(len(reports))
	emit := func(start, end int) {
		for i := start; i < end; i++ {
			r := &reports[i]
			j := jobSlot(jobs, r.JobID)
			alloc, total, stages := budget[j], jobs[j].Demand, jobs[j].Stages
			var limit wire.Rates
			for c := 0; c < int(wire.NumClasses); c++ {
				if total[c] > 0 {
					limit[c] = alloc[c] * r.Demand[c] / total[c]
				} else {
					limit[c] = alloc[c] / float64(stages)
				}
			}
			slot[i] = wire.Rule{
				StageID: r.StageID,
				JobID:   r.JobID,
				Action:  wire.ActionSetLimit,
				Limit:   limit,
			}
		}
	}
	workers := 0
	if len(reports) > 0 {
		if parallel {
			workers = cyclemem.ParallelFor(len(reports), runtime.GOMAXPROCS(0), parallelComputeMin, emit)
		} else {
			emit(0, len(reports))
			workers = 1
		}
	}
	table.Seal()
	pipe.RecordComputeWorkers(workers)
	return table
}

// arenaSnapshot converts the arena's counters into the telemetry mirror.
func arenaSnapshot(s cyclemem.Stats) telemetry.ArenaSnapshot {
	return telemetry.ArenaSnapshot{
		Generation: s.Generation,
		Takes:      s.Takes,
		Reuses:     s.Reuses,
		Grows:      s.Grows,
	}
}

// jobSlot finds jobID's index in the JobID-sorted aggregate slice, or -1.
func jobSlot(jobs []wire.JobReport, jobID uint64) int {
	i := sort.Search(len(jobs), func(i int) bool { return jobs[i].JobID >= jobID })
	if i < len(jobs) && jobs[i].JobID == jobID {
		return i
	}
	return -1
}

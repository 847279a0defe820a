package controller

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"testing"

	"github.com/dsrhaslab/sdscale/internal/controlalg"
	"github.com/dsrhaslab/sdscale/internal/metrics"
	"github.com/dsrhaslab/sdscale/internal/stage"
	"github.com/dsrhaslab/sdscale/internal/wire"
)

// referenceFlatRules is the pre-arena map-based implementation of the flat
// compute phase, kept verbatim as the equivalence oracle: group reports by
// job in stable index order, split each job's allocation with
// controlalg.SplitProportional, last write wins per stage.
func referenceFlatRules(algo controlalg.Algorithm, weights map[uint64]float64,
	capacity wire.Rates, reports []wire.StageReport) map[uint64]wire.Rule {
	jobs := metrics.AggregateByJob(reports)
	inputs := make([]controlalg.JobInput, len(jobs))
	for i, j := range jobs {
		inputs[i] = controlalg.JobInput{JobID: j.JobID, Weight: weights[j.JobID], Demand: j.Demand, Stages: j.Stages}
	}
	allocs := algo.Allocate(inputs, capacity)

	allocByJob := make(map[uint64]wire.Rates, len(allocs))
	for _, a := range allocs {
		allocByJob[a.JobID] = a.Limit
	}
	stagesByJob := make(map[uint64][]int)
	for i := range reports {
		stagesByJob[reports[i].JobID] = append(stagesByJob[reports[i].JobID], i)
	}
	rules := make(map[uint64]wire.Rule, len(reports))
	for jobID, idxs := range stagesByJob {
		demands := make([]wire.Rates, len(idxs))
		for k, i := range idxs {
			demands[k] = reports[i].Demand
		}
		split := controlalg.SplitProportional(allocByJob[jobID], demands)
		for k, i := range idxs {
			rules[reports[i].StageID] = wire.Rule{
				StageID: reports[i].StageID,
				JobID:   jobID,
				Action:  wire.ActionSetLimit,
				Limit:   split[k],
			}
		}
	}
	return rules
}

// referencePeerRules is the pre-arena coordinated compute phase: uniform
// global split per stage, scaled to the partition's own stage count,
// then proportional-to-demand within the partition.
func referencePeerRules(allocs []controlalg.JobAllocation, merged []wire.JobReport,
	reports []wire.StageReport) map[uint64]wire.Rule {
	perStageAlloc := make(map[uint64]wire.Rates, len(allocs))
	for i, a := range allocs {
		perStageAlloc[a.JobID] = controlalg.SplitUniform(a.Limit, int(merged[i].Stages))
	}
	ownStagesByJob := make(map[uint64][]int)
	for i := range reports {
		ownStagesByJob[reports[i].JobID] = append(ownStagesByJob[reports[i].JobID], i)
	}
	rules := make(map[uint64]wire.Rule, len(reports))
	for jobID, idxs := range ownStagesByJob {
		perStage := perStageAlloc[jobID]
		share := perStage.Scale(float64(len(idxs)))
		demands := make([]wire.Rates, len(idxs))
		for k, i := range idxs {
			demands[k] = reports[i].Demand
		}
		split := controlalg.SplitProportional(share, demands)
		for k, i := range idxs {
			rules[reports[i].StageID] = wire.Rule{
				StageID: reports[i].StageID,
				JobID:   jobID,
				Action:  wire.ActionSetLimit,
				Limit:   split[k],
			}
		}
	}
	return rules
}

// randomFleet builds a shuffled report set: nJobs jobs spread over nStages
// stages, random demands with occasional zero classes (exercising the
// even-split fallback), and per-job weights.
func randomFleet(rng *rand.Rand, nStages, nJobs int) ([]wire.StageReport, map[uint64]float64, wire.Rates) {
	reports := make([]wire.StageReport, nStages)
	for i := range reports {
		var d wire.Rates
		for c := range d {
			if rng.Intn(10) > 0 { // 10%: zero demand in this class
				d[c] = rng.Float64() * 500
			}
		}
		reports[i] = wire.StageReport{
			StageID: uint64(i + 1),
			JobID:   uint64(rng.Intn(nJobs) + 1),
			Demand:  d,
			Usage:   d.Scale(0.9),
		}
	}
	rng.Shuffle(len(reports), func(i, j int) { reports[i], reports[j] = reports[j], reports[i] })
	weights := make(map[uint64]float64, nJobs)
	for j := 1; j <= nJobs; j++ {
		weights[uint64(j)] = 0.5 + rng.Float64()*3.5
	}
	var capacity wire.Rates
	for c := range capacity {
		capacity[c] = 1_000 + rng.Float64()*100_000
	}
	return reports, weights, capacity
}

// testGlobal builds the minimal Global the compute kernel needs; no network.
func testGlobal(weights map[uint64]float64, capacity wire.Rates) *Global {
	g := &Global{cfg: GlobalConfig{Algorithm: controlalg.PSFA{}}}
	g.jobs.init(controlalg.PSFA{}, capacity)
	for id, w := range weights {
		g.jobs.setWeight(id, w)
	}
	g.init(stageOpts{})
	return g
}

// limits returns the allocations' limits, index-aligned — the form
// jobTable.allocate hands the compute kernels.
func limits(allocs []controlalg.JobAllocation) []wire.Rates {
	out := make([]wire.Rates, len(allocs))
	for i, a := range allocs {
		out[i] = a.Limit
	}
	return out
}

// sameRule compares two rules bit-for-bit (limits via Float64bits, so -0 vs
// +0 or differently-rounded sums fail the comparison).
func sameRule(a, b wire.Rule) bool {
	if a.StageID != b.StageID || a.JobID != b.JobID || a.Action != b.Action {
		return false
	}
	for c := range a.Limit {
		if math.Float64bits(a.Limit[c]) != math.Float64bits(b.Limit[c]) {
			return false
		}
	}
	return true
}

func checkAgainst(t *testing.T, label string, table interface {
	Lookup(uint64) (wire.Rule, bool)
}, ref map[uint64]wire.Rule, reports []wire.StageReport) {
	t.Helper()
	for i := range reports {
		id := reports[i].StageID
		got, ok := table.Lookup(id)
		want, refOK := ref[id]
		if ok != refOK {
			t.Fatalf("%s: stage %d: lookup ok=%v, reference ok=%v", label, id, ok, refOK)
		}
		if ok && !sameRule(got, want) {
			t.Fatalf("%s: stage %d: rule %+v != reference %+v", label, id, got, want)
		}
	}
}

// TestComputeFlatRulesEquivalence drives the flat kernel with random fleets
// and checks three-way byte-for-byte equality: the old map-based reference,
// the serial kernel (the blocking mode's pinned path), and the sharded
// parallel kernel under forced multi-core GOMAXPROCS. Sizes straddle
// parallelComputeMin so both the inline and sharded branches run.
func TestComputeFlatRulesEquivalence(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)

	rng := rand.New(rand.NewSource(7))
	sizes := []int{1, 3, 17, 257, parallelComputeMin - 1, parallelComputeMin, 3*parallelComputeMin + 11}
	for trial := 0; trial < 20; trial++ {
		nStages := sizes[trial%len(sizes)]
		nJobs := 1 + rng.Intn(8)
		reports, weights, capacity := randomFleet(rng, nStages, nJobs)
		ref := referenceFlatRules(controlalg.PSFA{}, weights, capacity, reports)

		label := fmt.Sprintf("trial %d (stages=%d jobs=%d)", trial, nStages, nJobs)
		serial := testGlobal(weights, capacity)
		serial.arena.Begin()
		st := serial.computeFlatRules(reports, false)
		checkAgainst(t, label+" serial", st, ref, reports)
		if w := serial.pipe.ComputeWorkers(); w != 1 {
			t.Fatalf("%s: serial kernel recorded %d workers", label, w)
		}

		par := testGlobal(weights, capacity)
		par.arena.Begin()
		pt := par.computeFlatRules(reports, true)
		checkAgainst(t, label+" parallel", pt, ref, reports)
		if nStages >= 2*parallelComputeMin {
			if w := par.pipe.ComputeWorkers(); w < 2 {
				t.Fatalf("%s: parallel kernel used %d workers, want >= 2", label, w)
			}
		}
	}
}

// TestComputePeerRulesEquivalence does the same for the kernel of a Global
// with fellows, with a fellow's aggregates merged into the global view so the
// per-partition share differs from the whole allocation.
func TestComputePeerRulesEquivalence(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)

	rng := rand.New(rand.NewSource(11))
	sizes := []int{1, 29, 511, 2*parallelComputeMin + 5}
	for trial := 0; trial < 12; trial++ {
		nStages := sizes[trial%len(sizes)]
		nJobs := 1 + rng.Intn(6)
		reports, weights, capacity := randomFleet(rng, nStages, nJobs)
		ownJobs := metrics.AggregateByJob(reports)

		// A fellow reporting overlapping jobs: the merged view's stage
		// counts exceed the partition's, so shares scale non-trivially.
		remote := make([]wire.JobReport, 0, nJobs)
		for j := 1; j <= nJobs; j++ {
			if rng.Intn(2) == 0 {
				continue
			}
			var d wire.Rates
			for c := range d {
				d[c] = rng.Float64() * 300
			}
			remote = append(remote, wire.JobReport{JobID: uint64(j), Demand: d, Usage: d, Stages: uint32(1 + rng.Intn(50))})
		}
		merged := metrics.MergeJobReports(ownJobs, remote)
		inputs := make([]controlalg.JobInput, len(merged))
		for i, j := range merged {
			inputs[i] = controlalg.JobInput{JobID: j.JobID, Weight: weights[j.JobID], Demand: j.Demand, Stages: j.Stages}
		}
		allocs := controlalg.PSFA{}.Allocate(inputs, capacity)
		ref := referencePeerRules(allocs, merged, reports)

		label := fmt.Sprintf("trial %d (stages=%d jobs=%d)", trial, nStages, nJobs)
		serial := &Global{}
		serial.init(stageOpts{})
		serial.arena.Begin()
		st := serial.computePeerRules(reports, ownJobs, merged, limits(allocs), false)
		checkAgainst(t, label+" serial", st, ref, reports)

		par := &Global{}
		par.init(stageOpts{})
		par.arena.Begin()
		pt := par.computePeerRules(reports, ownJobs, merged, limits(allocs), true)
		checkAgainst(t, label+" parallel", pt, ref, reports)
	}
}

// TestComputeFlatRulesParallelStress races the sharded kernel against the
// controller surfaces that stay live during a cycle: weight pushes from
// stage registrations (noteJob), elastic capacity retunes, and monitoring
// snapshots. Run under -race this is the guard that compute sharding added
// no unsynchronized access; the equality check doubles as a determinism
// probe across repeated runs on a mutating controller.
func TestComputeFlatRulesParallelStress(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)

	rng := rand.New(rand.NewSource(23))
	reports, weights, capacity := randomFleet(rng, 2*parallelComputeMin+33, 4)
	g := testGlobal(weights, capacity)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			g.noteJob(uint64(1+i%4), 1+float64(i%7))
			g.SetCapacity(capacity.Scale(1 + float64(i%3)/10))
		}
	}()
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = g.Stats()
		}
	}()

	for cycle := 0; cycle < 50; cycle++ {
		g.arena.Begin()
		table := g.computeFlatRules(reports, true)
		if table.Len() != len(reports) {
			t.Fatalf("cycle %d: table holds %d rules, want %d", cycle, table.Len(), len(reports))
		}
	}
	close(stop)
	wg.Wait()
}

// referenceHierRules is the hierarchical compute as Global.runHierarchicalCycle
// wrote it before the job table, kept verbatim as the oracle: replies to
// per-job groups, inputs and Allocate, a per-job uniform
// split in a map, and per aggregator either its per-stage rule batch or,
// delegated, its per-job budgets counted through a map.
func referenceHierRules(algo controlalg.Algorithm, weights map[uint64]float64, capacity wire.Rates,
	delegated bool, children []*child, replies, stale []wire.Message) ([][]wire.Rule, [][]wire.JobBudget) {
	n := len(children)
	groups := make([][]wire.JobReport, 0, n)
	responded := make([]bool, n)
	for i, r := range replies {
		switch r := r.(type) {
		case *wire.CollectAggReply:
			groups = append(groups, r.Jobs)
			responded[i] = true
		case *wire.CollectReply:
			groups = append(groups, metrics.AggregateByJob(r.Reports))
			responded[i] = true
		}
	}
	for _, m := range stale {
		switch r := m.(type) {
		case *wire.CollectAggReply:
			groups = append(groups, r.Jobs)
		case *wire.CollectReply:
			groups = append(groups, metrics.AggregateByJob(r.Reports))
		}
	}
	merged := metrics.MergeJobReports(groups...)
	inputs := make([]controlalg.JobInput, len(merged))
	for i, j := range merged {
		inputs[i] = controlalg.JobInput{
			JobID:  j.JobID,
			Weight: weights[j.JobID],
			Demand: j.Demand,
			Stages: j.Stages,
		}
	}
	allocs := algo.Allocate(inputs, capacity)
	perStage := make(map[uint64]wire.Rates, len(allocs))
	for i, a := range allocs {
		perStage[a.JobID] = controlalg.SplitUniform(a.Limit, int(merged[i].Stages))
	}
	batches := make([][]wire.Rule, n)
	budgets := make([][]wire.JobBudget, n)
	for i, c := range children {
		if !responded[i] {
			continue // skip unresponsive aggregators this cycle
		}
		stages := c.stageList()
		if delegated {
			counts := make(map[uint64]int)
			for _, s := range stages {
				counts[s.JobID]++
			}
			budget := make([]wire.JobBudget, 0, len(counts))
			for _, a := range allocs {
				cnt := counts[a.JobID]
				if cnt == 0 {
					continue
				}
				budget = append(budget, wire.JobBudget{
					JobID: a.JobID,
					Limit: perStage[a.JobID].Scale(float64(cnt)),
				})
			}
			budgets[i] = budget
			continue
		}
		batch := make([]wire.Rule, 0, len(stages))
		for _, s := range stages {
			limit, ok := perStage[s.JobID]
			if !ok {
				continue
			}
			batch = append(batch, wire.Rule{
				StageID: s.ID,
				JobID:   s.JobID,
				Action:  wire.ActionSetLimit,
				Limit:   limit,
			})
		}
		batches[i] = batch
	}
	return batches, budgets
}

// referenceDelegateRules is Aggregator.delegate's split as it was before it
// moved onto emitRules, kept verbatim as the oracle: the report set grouped
// by job in a map, each budget split with controlalg.SplitProportional, a
// split identical on all of a job's more than one stages collapsed into a
// wildcard for the job's active stages, and the unicast rules stable-sorted
// by stage as Aggregator.enforce sorts them.
func referenceDelegateRules(reports []wire.StageReport, budgets []wire.JobBudget, active []*child) ([]wildcast, []wire.Rule) {
	byJob := make(map[uint64][]int, len(budgets))
	for i := range reports {
		byJob[reports[i].JobID] = append(byJob[reports[i].JobID], i)
	}
	byStageChild := make(map[uint64]*child, len(active))
	for _, c := range active {
		byStageChild[c.info.ID] = c
	}
	var casts []wildcast
	rules := make([]wire.Rule, 0, len(reports))
	for _, budget := range budgets {
		idxs := byJob[budget.JobID]
		if len(idxs) == 0 {
			continue
		}
		demands := make([]wire.Rates, len(idxs))
		for k, i := range idxs {
			demands[k] = reports[i].Demand
		}
		split := controlalg.SplitProportional(budget.Limit, demands)
		uniform := len(idxs) > 1
		for k := 1; k < len(split) && uniform; k++ {
			uniform = split[k] == split[0]
		}
		if uniform {
			w := wildcast{rule: wire.Rule{
				StageID: wire.WildcardStage,
				JobID:   budget.JobID,
				Action:  wire.ActionSetLimit,
				Limit:   split[0],
			}}
			for _, i := range idxs {
				if c := byStageChild[reports[i].StageID]; c != nil {
					w.targets = append(w.targets, c)
				}
			}
			if len(w.targets) > 0 {
				casts = append(casts, w)
			}
			continue
		}
		for k, i := range idxs {
			rules = append(rules, wire.Rule{
				StageID: reports[i].StageID,
				JobID:   budget.JobID,
				Action:  wire.ActionSetLimit,
				Limit:   split[k],
			})
		}
	}
	sort.SliceStable(rules, func(i, j int) bool { return rules[i].StageID < rules[j].StageID })
	return casts, rules
}

// sameRates compares two rate vectors bit for bit.
func sameRates(a, b wire.Rates) bool {
	for c := range a {
		if math.Float64bits(a[c]) != math.Float64bits(b[c]) {
			return false
		}
	}
	return true
}

// hierFleet spreads a report set over nAggs active aggregator children and
// one quarantined aggregator, so every child serves interleaved jobs. One
// stage in eight stays silent: it is in its aggregator's stage list but not
// in its reply. Child 0 replies raw, as a ForwardRaw aggregator does; the
// last child did not answer; the quarantined aggregator's pre-aggregated
// reply is the one stale reply.
func hierFleet(rng *rand.Rand, reports []wire.StageReport, nAggs int) (children []*child, replies, stale []wire.Message) {
	reported := make([][]wire.StageReport, nAggs+1)
	children = make([]*child, nAggs)
	for i := range children {
		children[i] = &child{info: stage.Info{ID: uint64(1000 + i)}, role: wire.RoleAggregator}
	}
	for _, r := range reports {
		a := rng.Intn(nAggs + 1)
		if a < nAggs {
			children[a].stages = append(children[a].stages, stage.Info{ID: r.StageID, JobID: r.JobID, Weight: 1})
		}
		if rng.Intn(8) > 0 {
			reported[a] = append(reported[a], r)
		}
	}
	replies = make([]wire.Message, nAggs)
	replies[0] = &wire.CollectReply{Reports: reported[0]}
	for i := 1; i < nAggs-1; i++ {
		replies[i] = &wire.CollectAggReply{AggregatorID: uint64(1000 + i), Jobs: metrics.AggregateByJob(reported[i])}
	}
	stale = []wire.Message{&wire.CollectAggReply{AggregatorID: 999, Jobs: metrics.AggregateByJob(reported[nAggs])}}
	return children, replies, stale
}

// TestComputeHierRulesEquivalence checks computeHierRules bit for bit
// against the implementation it replaced, plain and delegated, over random
// fleets: every aggregator's rule batch or budgets.
func TestComputeHierRulesEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 30; trial++ {
		nAggs := 3 + rng.Intn(4)
		nStages := 1 + rng.Intn(400)
		nJobs := 1 + rng.Intn(8)
		reports, weights, capacity := randomFleet(rng, nStages, nJobs)
		if trial%2 == 1 {
			delete(weights, 1) // a job no registration weighted: PSFA's default
		}
		children, replies, stale := hierFleet(rng, reports, nAggs)
		for _, delegated := range []bool{false, true} {
			label := fmt.Sprintf("trial %d (aggs=%d stages=%d jobs=%d delegated=%v)", trial, nAggs, nStages, nJobs, delegated)
			wantBatches, wantBudgets := referenceHierRules(controlalg.PSFA{}, weights, capacity,
				delegated, children, replies, stale)

			g := testGlobal(weights, capacity)
			g.cfg.Delegated = delegated
			g.arena.Begin()
			batches, budgets := g.computeHierRules(children, replies, stale)
			for i := range children {
				if len(batches[i]) != len(wantBatches[i]) || len(budgets[i]) != len(wantBudgets[i]) {
					t.Fatalf("%s: child %d: %d rules, %d budgets; reference %d, %d", label, i,
						len(batches[i]), len(budgets[i]), len(wantBatches[i]), len(wantBudgets[i]))
				}
				for k := range batches[i] {
					if !sameRule(batches[i][k], wantBatches[i][k]) {
						t.Fatalf("%s: child %d rule %d: %+v != reference %+v", label, i, k, batches[i][k], wantBatches[i][k])
					}
				}
				for k := range budgets[i] {
					got, want := budgets[i][k], wantBudgets[i][k]
					if got.JobID != want.JobID || !sameRates(got.Limit, want.Limit) {
						t.Fatalf("%s: child %d budget %d: %+v != reference %+v", label, i, k, got, want)
					}
				}
			}
		}
	}
}

// TestDelegateRulesEquivalence checks Aggregator.delegateRules bit for bit
// against the split it replaced, over random report sets in which some jobs
// have converged (every stage demands the same, so the split is uniform and
// goes out as a wildcard), some have converged in one class only, one job
// demands nothing at all, some jobs get no
// budget, one budget names a job without stages, and one stage in eight is
// quarantined. Every third trial the aggregator relayed its collect raw, so
// delegateRules aggregates the rows itself.
func TestDelegateRulesEquivalence(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)

	rng := rand.New(rand.NewSource(31))
	sizes := []int{1, 2, 9, 64, 700, 2*parallelComputeMin + 5}
	for trial := 0; trial < 24; trial++ {
		nStages := sizes[trial%len(sizes)]
		nJobs := 1 + rng.Intn(8)
		reports, _, _ := randomFleet(rng, nStages, nJobs)
		converged := make(map[uint64]wire.Rates)
		for i := range reports {
			r := &reports[i]
			switch {
			case r.JobID%4 == 0:
				r.Demand = wire.Rates{}
			case r.JobID%2 == 0:
				if d, ok := converged[r.JobID]; ok {
					r.Demand = d
				} else {
					converged[r.JobID] = r.Demand
				}
			case r.JobID%3 == 0: // converged in the data class only
				if d, ok := converged[r.JobID]; ok {
					r.Demand[wire.ClassData] = d[wire.ClassData]
				} else {
					converged[r.JobID] = r.Demand
				}
			}
		}
		var budgets []wire.JobBudget
		for j := 1; j <= nJobs+1; j++ {
			if rng.Intn(4) > 0 {
				budgets = append(budgets, wire.JobBudget{JobID: uint64(j), Limit: wire.Rates{rng.Float64() * 5e4, rng.Float64() * 5e3}})
			}
		}
		var active []*child
		for _, r := range reports {
			if rng.Intn(8) > 0 {
				active = append(active, &child{info: stage.Info{ID: r.StageID, JobID: r.JobID}, role: wire.RoleStage})
			}
		}
		label := fmt.Sprintf("trial %d (stages=%d jobs=%d)", trial, nStages, nJobs)
		wantCasts, wantRules := referenceDelegateRules(reports, budgets, active)

		a := &Aggregator{}
		a.init(stageOpts{})
		a.arena.Begin()
		a.reports = reports
		if trial%3 != 0 {
			a.jobs = metrics.AggregateByJob(reports)
		}
		casts, rules := a.delegateRules(&wire.Delegate{Budgets: budgets}, active)

		if len(rules) != len(wantRules) {
			t.Fatalf("%s: %d unicast rules, reference %d", label, len(rules), len(wantRules))
		}
		for k := range rules {
			if !sameRule(rules[k], wantRules[k]) {
				t.Fatalf("%s: rule %d: %+v != reference %+v", label, k, rules[k], wantRules[k])
			}
		}
		sent := casts[:0]
		for _, w := range casts {
			if len(w.targets) > 0 {
				sent = append(sent, w)
			}
		}
		if casts = sent; len(casts) != len(wantCasts) {
			t.Fatalf("%s: %d wildcard casts, reference %d", label, len(casts), len(wantCasts))
		}
		targetIDs := func(w wildcast) []uint64 {
			ids := make([]uint64, len(w.targets))
			for i, c := range w.targets {
				ids[i] = c.info.ID
			}
			sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
			return ids
		}
		for k, want := range wantCasts {
			got := casts[k]
			if !sameRule(got.rule, want.rule) || fmt.Sprint(targetIDs(got)) != fmt.Sprint(targetIDs(want)) {
				t.Fatalf("%s: cast %d: %+v to %v != reference %+v to %v", label, k,
					got.rule, targetIDs(got), want.rule, targetIDs(want))
			}
		}
	}
}

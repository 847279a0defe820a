package controller

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"github.com/dsrhaslab/sdscale/internal/controlalg"
	"github.com/dsrhaslab/sdscale/internal/metrics"
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

// referencePeerRules is the pre-arena coordinated-peer compute phase:
// uniform global split per stage, scaled to the peer's own stage count,
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
	g := &Global{
		cfg:        GlobalConfig{Algorithm: controlalg.PSFA{}},
		jobWeights: weights,
		capacity:   capacity,
	}
	g.init(stageOpts{})
	return g
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

// TestComputePeerRulesEquivalence does the same for the coordinated-peer
// kernel, with remote peers' aggregates merged into the global view so the
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

		// A remote peer reporting overlapping jobs: the merged view's stage
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
		serial := &Peer{}
		serial.init(stageOpts{})
		serial.arena.Begin()
		st := serial.computePeerRules(reports, ownJobs, merged, allocs, false)
		checkAgainst(t, label+" serial", st, ref, reports)

		par := &Peer{}
		par.init(stageOpts{})
		par.arena.Begin()
		pt := par.computePeerRules(reports, ownJobs, merged, allocs, true)
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
			_ = g.JobStatuses()
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

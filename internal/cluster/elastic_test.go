package cluster

import (
	"context"
	"testing"
)

// cycleAndCheckRules runs one control cycle and asserts every stage holds a
// rule — the no-rule-loss invariant every reshape must preserve.
func cycleAndCheckRules(t *testing.T, c *Cluster) {
	t.Helper()
	if _, err := c.RunControlCycle(context.Background()); err != nil {
		t.Fatalf("cycle: %v", err)
	}
	for i, v := range c.Stages {
		if _, ok := v.LastRule(); !ok {
			t.Fatalf("stage %d (id %d) has no rule after reshape", i, v.Info().ID)
		}
	}
}

func TestGrowShrinkAggregators(t *testing.T) {
	c, err := Build(Config{Topology: Hierarchical, Stages: 60, Jobs: 4, Aggregators: 2, Net: fastNet()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	cycleAndCheckRules(t, c)

	if err := c.GrowAggregators(ctx); err != nil {
		t.Fatal(err)
	}
	if c.NumAggregators() != 3 {
		t.Fatalf("aggregators = %d, want 3", c.NumAggregators())
	}
	// The grown tier is balanced: 60 stages over 3 aggregators = 20 each,
	// and the global controller sees all 60 through its stage lists.
	for i, a := range c.Aggregators {
		if n := a.NumStages(); n != 20 {
			t.Errorf("aggregator %d manages %d stages, want 20", i, n)
		}
	}
	if n := c.Global.NumStages(); n != 60 {
		t.Fatalf("global sees %d stages, want 60", n)
	}
	cycleAndCheckRules(t, c)

	if err := c.ShrinkAggregators(ctx); err != nil {
		t.Fatal(err)
	}
	if c.NumAggregators() != 2 {
		t.Fatalf("aggregators = %d, want 2", c.NumAggregators())
	}
	if n := c.Global.NumStages(); n != 60 {
		t.Fatalf("global sees %d stages after shrink, want 60", n)
	}
	cycleAndCheckRules(t, c)

	// The tier never shrinks below one.
	if err := c.ShrinkAggregators(ctx); err != nil {
		t.Fatal(err)
	}
	if err := c.ShrinkAggregators(ctx); err == nil {
		t.Fatal("shrank below one aggregator")
	}
}

func TestSetStagesFlat(t *testing.T) {
	c, err := Build(Config{Topology: Flat, Stages: 10, Jobs: 4, Net: fastNet()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()

	if err := c.SetStages(ctx, 16); err != nil {
		t.Fatal(err)
	}
	if len(c.Stages) != 16 || c.Global.NumStages() != 16 {
		t.Fatalf("fleet = %d stages, global sees %d, want 16/16", len(c.Stages), c.Global.NumStages())
	}
	cycleAndCheckRules(t, c)

	if err := c.SetStages(ctx, 6); err != nil {
		t.Fatal(err)
	}
	if len(c.Stages) != 6 || c.Global.NumStages() != 6 {
		t.Fatalf("fleet = %d stages, global sees %d, want 6/6", len(c.Stages), c.Global.NumStages())
	}
	cycleAndCheckRules(t, c)

	// Re-grow mints fresh IDs — no collision with the shrunken stages.
	if err := c.SetStages(ctx, 8); err != nil {
		t.Fatal(err)
	}
	cycleAndCheckRules(t, c)

	if err := c.SetStages(ctx, 0); err == nil {
		t.Fatal("shrank the fleet to zero")
	}
}

func TestSetStagesHierarchical(t *testing.T) {
	c, err := Build(Config{Topology: Hierarchical, Stages: 20, Jobs: 4, Aggregators: 2, Net: fastNet()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()

	if err := c.SetStages(ctx, 30); err != nil {
		t.Fatal(err)
	}
	if n := c.Global.NumStages(); n != 30 {
		t.Fatalf("global sees %d stages, want 30", n)
	}
	// Growth spread over the tier, not piled on one aggregator.
	for i, a := range c.Aggregators {
		if n := a.NumStages(); n != 15 {
			t.Errorf("aggregator %d manages %d, want 15", i, n)
		}
	}
	cycleAndCheckRules(t, c)

	if err := c.SetStages(ctx, 12); err != nil {
		t.Fatal(err)
	}
	if n := c.Global.NumStages(); n != 12 {
		t.Fatalf("global sees %d stages, want 12", n)
	}
	cycleAndCheckRules(t, c)
}

func TestSetStagesSharded(t *testing.T) {
	c, err := Build(Config{Topology: Flat, Stages: 40, Jobs: 4, Shards: 2, Net: fastNet()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()

	if err := c.SetStages(ctx, 60); err != nil {
		t.Fatal(err)
	}
	if st := c.Router.Stats(); st.Children != 60 {
		t.Fatalf("router sees %d children, want 60", st.Children)
	}
	cycleAndCheckRules(t, c)

	if err := c.SetStages(ctx, 25); err != nil {
		t.Fatal(err)
	}
	if st := c.Router.Stats(); st.Children != 25 {
		t.Fatalf("router sees %d children, want 25", st.Children)
	}
	cycleAndCheckRules(t, c)

	if err := c.SetStages(ctx, 1); err == nil {
		t.Fatal("shrank the fleet below the live shard count")
	}
}

func TestSetStagesCoordinated(t *testing.T) {
	c, err := Build(Config{Topology: Coordinated, Stages: 12, Jobs: 4, Shards: 3, Net: fastNet()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()

	// Grown stages join the last contiguous slice.
	if err := c.SetStages(ctx, 15); err != nil {
		t.Fatal(err)
	}
	if st := c.Router.Stats(); st.Children != 15 {
		t.Fatalf("router sees %d children, want 15", st.Children)
	}
	if n := c.Globals[2].NumStages(); n != 7 {
		t.Errorf("last leader owns %d stages, want 7", n)
	}
	cycleAndCheckRules(t, c)

	if err := c.SetStages(ctx, 10); err != nil {
		t.Fatal(err)
	}
	if st := c.Router.Stats(); st.Children != 10 {
		t.Fatalf("router sees %d children, want 10", st.Children)
	}
	cycleAndCheckRules(t, c)
}

func TestResizeShards(t *testing.T) {
	c, err := Build(Config{Topology: Flat, Stages: 60, Jobs: 4, Shards: 2, Net: fastNet()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	cycleAndCheckRules(t, c)

	if err := c.Reconfigure(ctx, nil, 4, 0); err != nil {
		t.Fatal(err)
	}
	if c.Router.NumShards() != 4 || len(c.Globals) != 4 {
		t.Fatalf("shards = %d leaders = %d, want 4/4", c.Router.NumShards(), len(c.Globals))
	}
	total := 0
	for s := 0; s < 4; s++ {
		n := c.Router.Group(s).Leader().NumChildren()
		if n == 0 {
			t.Errorf("shard %d owns no children after grow", s)
		}
		total += n
	}
	if total != 60 {
		t.Fatalf("fleet children = %d, want 60", total)
	}
	cycleAndCheckRules(t, c)

	if err := c.Reconfigure(ctx, nil, 2, 0); err != nil {
		t.Fatal(err)
	}
	if c.Router.NumShards() != 2 || len(c.Globals) != 2 {
		t.Fatalf("shards = %d leaders = %d, want 2/2", c.Router.NumShards(), len(c.Globals))
	}
	total = 0
	for s := 0; s < 2; s++ {
		total += c.Router.Group(s).Leader().NumChildren()
	}
	if total != 60 {
		t.Fatalf("fleet children = %d after shrink, want 60", total)
	}
	cycleAndCheckRules(t, c)

	if err := c.resizeShards(ctx, 0); err == nil {
		t.Fatal("resized to zero shards")
	}
	if err := c.resizeShards(ctx, 61); err == nil {
		t.Fatal("resized to more shards than stages")
	}
}

func TestSetJobWeightLive(t *testing.T) {
	c, err := Build(Config{Topology: Flat, Stages: 8, Jobs: 2, Net: fastNet()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cycleAndCheckRules(t, c)

	// Job 1's weight triples: its stages' allocation must strictly grow
	// relative to job 2's on the next cycle.
	before := stageLimitByJob(c)
	if err := c.Reconfigure(context.Background(), map[uint64]float64{1: 3}, 0, 0); err != nil {
		t.Fatal(err)
	}
	cycleAndCheckRules(t, c)
	after := stageLimitByJob(c)
	if !(after[1][0] > before[1][0]) {
		t.Fatalf("job 1 data limit did not grow after weight bump: %v -> %v", before[1], after[1])
	}
	if !(after[2][0] < before[2][0]) {
		t.Fatalf("job 2 data limit did not yield: %v -> %v", before[2], after[2])
	}
}

// stageLimitByJob sums each job's enforced per-stage data/meta limits.
func stageLimitByJob(c *Cluster) map[uint64][2]float64 {
	out := make(map[uint64][2]float64)
	for _, v := range c.Stages {
		r, ok := v.LastRule()
		if !ok {
			continue
		}
		cur := out[v.Info().JobID]
		cur[0] += r.Limit[0]
		cur[1] += r.Limit[1]
		out[v.Info().JobID] = cur
	}
	return out
}

// TestSetJobWeightCoordinated: a weight reaches every coordinated leader,
// so job 1 grows on every leader's slice of the fleet.
func TestSetJobWeightCoordinated(t *testing.T) {
	c, err := Build(Config{Topology: Coordinated, Stages: 12, Jobs: 2, Shards: 3, Net: fastNet()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Two rounds: the second computes over every fellow's aggregates.
	cycleAndCheckRules(t, c)
	cycleAndCheckRules(t, c)

	before := stageLimitByShardJob(c)
	if err := c.Reconfigure(context.Background(), map[uint64]float64{1: 3}, 0, 0); err != nil {
		t.Fatal(err)
	}
	cycleAndCheckRules(t, c)
	after := stageLimitByShardJob(c)
	for s := range c.Globals {
		if !(after[s][1][0] > before[s][1][0]) {
			t.Errorf("shard %d: job 1 data limit did not grow after weight bump: %v -> %v", s, before[s][1], after[s][1])
		}
		if !(after[s][2][0] < before[s][2][0]) {
			t.Errorf("shard %d: job 2 data limit did not yield: %v -> %v", s, before[s][2], after[s][2])
		}
	}
}

// stageLimitByShardJob is stageLimitByJob split by owning shard.
func stageLimitByShardJob(c *Cluster) map[int]map[uint64][2]float64 {
	out := make(map[int]map[uint64][2]float64)
	for _, v := range c.Stages {
		r, ok := v.LastRule()
		if !ok {
			continue
		}
		s, _ := c.Router.Route(v.Info().ID)
		if out[s] == nil {
			out[s] = make(map[uint64][2]float64)
		}
		cur := out[s][v.Info().JobID]
		cur[0] += r.Limit[0]
		cur[1] += r.Limit[1]
		out[s][v.Info().JobID] = cur
	}
	return out
}

// TestCoordinatedDeltaEnforcement: DeltaEnforcement reaches coordinated
// leaders, so once the fellows' views settle under a steady workload no
// stage is sent an enforce again.
func TestCoordinatedDeltaEnforcement(t *testing.T) {
	c, err := Build(Config{Topology: Coordinated, Stages: 12, Jobs: 3, Shards: 3, DeltaEnforcement: true, Net: fastNet()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	enforces := func() (n uint64) {
		for _, v := range c.Stages {
			_, e := v.Counters()
			n += e
		}
		return n
	}
	for i := 0; i < 4; i++ {
		cycleAndCheckRules(t, c)
	}
	settled := enforces()
	for i := 0; i < 3; i++ {
		cycleAndCheckRules(t, c)
	}
	if got := enforces() - settled; got != 0 {
		t.Errorf("%d enforces over 3 steady rounds, want 0 under DeltaEnforcement", got)
	}
}

package sdscale_test

import (
	"context"
	"strings"
	"testing"

	"github.com/dsrhaslab/sdscale"
)

// fastTestNet skips simulated propagation delay so elasticity tests turn
// cycles quickly.
func fastTestNet() sdscale.SimNetConfig { return sdscale.SimNetConfig{PropDelay: -1} }

func TestTopologyFromConfig(t *testing.T) {
	cf, err := sdscale.ParseConfig([]byte(`{
		"stages": 24, "jobs": 3, "shards": 2, "virtualNodes": 64,
		"workload": "constant:100,10", "capacity": [5000, 500],
		"incremental": true, "interval": "250ms"
	}`))
	if err != nil {
		t.Fatal(err)
	}
	topo, err := sdscale.TopologyFromConfig(cf)
	if err != nil {
		t.Fatal(err)
	}
	if topo.Stages != 24 || topo.Jobs != 3 || topo.Shards != 2 || topo.VirtualNodes != 64 {
		t.Fatalf("topology shape = %+v", topo)
	}
	if topo.Workload == nil {
		t.Fatal("workload spec did not lower onto a generator")
	}
	if topo.Capacity[0] != 5000 || topo.Capacity[1] != 500 {
		t.Fatalf("capacity = %v, want [5000 500]", topo.Capacity)
	}
	if !topo.Incremental {
		t.Fatal("incremental flag lost")
	}
	if err := topo.Validate(); err != nil {
		t.Fatalf("lowered topology does not validate: %v", err)
	}

	if _, err := sdscale.TopologyFromConfig(&sdscale.Config{Stages: 4, Workload: "nope:1"}); err == nil {
		t.Fatal("bad workload spec lowered cleanly")
	}
}

// TestApplyConfigLive drives the full hot-reload path against a running
// deployment: weights retune, the fleet grows, unsafe changes reject whole.
func TestApplyConfigLive(t *testing.T) {
	ctx := context.Background()
	old, err := sdscale.ParseConfig([]byte(`{"stages": 12, "jobs": 2}`))
	if err != nil {
		t.Fatal(err)
	}
	topo, err := sdscale.TopologyFromConfig(old)
	if err != nil {
		t.Fatal(err)
	}
	topo.Net = fastTestNet()
	d, err := sdscale.StartTopology(topo)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if _, err := d.RunControlCycle(ctx); err != nil {
		t.Fatal(err)
	}

	next, err := sdscale.ParseConfig([]byte(`{"stages": 18, "jobs": 2, "jobWeights": {"1": 4}, "interval": "100ms"}`))
	if err != nil {
		t.Fatal(err)
	}
	delta, err := sdscale.ApplyConfig(ctx, d, old, next)
	if err != nil {
		t.Fatal(err)
	}
	if delta.Stages != 18 || delta.Interval == nil || delta.JobWeights[1] != 4 {
		t.Fatalf("delta = %+v, want stages 18, interval set, weight 4", delta)
	}
	if st := d.Router.Stats(); st.Stages != 18 {
		t.Fatalf("deployment has %d stages after reload, want 18", st.Stages)
	}
	if _, err := d.RunControlCycle(ctx); err != nil {
		t.Fatal(err)
	}
	for _, v := range d.Stages {
		if _, ok := v.LastRule(); !ok {
			t.Fatalf("stage %d lost its rule across the reload", v.Info().ID)
		}
	}

	// An unsafe change (jobs) rejects the whole reload — the fleet stays.
	bad, err := sdscale.ParseConfig([]byte(`{"stages": 30, "jobs": 5}`))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sdscale.ApplyConfig(ctx, d, next, bad); err == nil ||
		!strings.Contains(err.Error(), "unsafe") {
		t.Fatalf("unsafe reload err = %v, want unsafe-change rejection", err)
	}
	if st := d.Router.Stats(); st.Stages != 18 {
		t.Fatalf("rejected reload mutated the fleet: %d stages", st.Stages)
	}

	// A shape-invalid file (fewer stages than shards) is rejected whole:
	// Parse refuses it by the builder's shape rules, and handed in
	// directly, the reload applies none of it.
	const shapeless = `{"stages": 1, "jobs": 2, "shards": 2}`
	if _, err := sdscale.ParseConfig([]byte(shapeless)); err == nil || !strings.Contains(err.Error(), "cannot populate") {
		t.Fatalf("ParseConfig(%s) err = %v, want a shape rejection", shapeless, err)
	}
	if _, err := sdscale.ApplyConfig(ctx, d, next, &sdscale.Config{Stages: 1, Jobs: 2, Shards: 2}); err == nil {
		t.Fatal("reload to 1 stage over 2 shards applied")
	}
	if n, st := d.Router.NumShards(), d.Router.Stats(); n != 1 || st.Stages != 18 {
		t.Fatalf("rejected shape reload left %d shard(s) and %d stages, want 1 and 18", n, st.Stages)
	}

	// A one-shard deployment reloads to two shards: a fresh leader takes
	// its ring share, and the next cycle rules every stage from its new
	// owner.
	sharded, err := sdscale.ParseConfig([]byte(`{"stages": 18, "jobs": 2, "shards": 2, "jobWeights": {"1": 4}, "interval": "100ms"}`))
	if err != nil {
		t.Fatal(err)
	}
	if delta, err := sdscale.ApplyConfig(ctx, d, next, sharded); err != nil || delta.Shards != 2 {
		t.Fatalf("shard reload = (%+v, %v), want shards 2", delta, err)
	}
	if n := d.Router.NumShards(); n != 2 {
		t.Fatalf("NumShards = %d after reload, want 2", n)
	}
	before := make([]uint64, len(d.Stages))
	for i, v := range d.Stages {
		before[i], _ = v.Counters()
	}
	if _, err := d.RunControlCycle(ctx); err != nil {
		t.Fatal(err)
	}
	for i, v := range d.Stages {
		collects, _ := v.Counters()
		if _, ok := v.LastRule(); !ok || collects <= before[i] {
			t.Fatalf("stage %d not ruled by the cycle after the shard reload", v.Info().ID)
		}
	}
	if st := d.Router.Stats(); st.Stages != 18 || st.Shards[0].Stages == 0 || st.Shards[1].Stages == 0 {
		t.Fatalf("stats after shard reload = %+v, want 18 stages over both shards", st)
	}
}

// TestDeploymentElasticSurface exercises the aggregator-tier actuators the
// elasticity loop drives.
func TestDeploymentElasticSurface(t *testing.T) {
	ctx := context.Background()
	d, err := sdscale.StartTopology(sdscale.Topology{
		Stages: 30, Jobs: 3, AggregatorFanIn: 15, Net: fastTestNet(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if d.NumAggregators() != 2 {
		t.Fatalf("tier = %d, want 2", d.NumAggregators())
	}
	if err := d.GrowAggregators(ctx); err != nil {
		t.Fatal(err)
	}
	if d.NumAggregators() != 3 {
		t.Fatalf("tier = %d after grow, want 3", d.NumAggregators())
	}
	if _, err := d.RunControlCycle(ctx); err != nil {
		t.Fatal(err)
	}
	if err := d.ShrinkAggregators(ctx); err != nil {
		t.Fatal(err)
	}
	if d.NumAggregators() != 2 {
		t.Fatalf("tier = %d after shrink, want 2", d.NumAggregators())
	}
	if _, err := d.RunControlCycle(ctx); err != nil {
		t.Fatal(err)
	}
	for _, v := range d.Stages {
		if _, ok := v.LastRule(); !ok {
			t.Fatalf("stage %d lost its rule across tier reshape", v.Info().ID)
		}
	}
}

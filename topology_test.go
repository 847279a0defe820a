package sdscale_test

import (
	"context"
	"strings"
	"testing"

	"github.com/dsrhaslab/sdscale"
)

// TestTopologySingleShardEquivalence pins the compatibility contract: a
// one-shard Topology is behaviorally identical to the classic single-Global
// deployment — same membership, same cycle, same per-stage rules.
func TestTopologySingleShardEquivalence(t *testing.T) {
	ctx := context.Background()

	d, err := sdscale.StartTopology(sdscale.Topology{Stages: 40, Jobs: 4, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	c, err := sdscale.BuildCluster(sdscale.ClusterConfig{Topology: sdscale.Flat, Stages: 40, Jobs: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if d.Router.NumShards() != 1 {
		t.Fatalf("NumShards = %d, want 1", d.Router.NumShards())
	}
	if _, err := d.RunControlCycle(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := c.RunControlCycle(ctx); err != nil {
		t.Fatal(err)
	}

	ds, cs := d.Router.Stats(), c.Global.Stats()
	if ds.Children != cs.Children || ds.Stages != cs.Stages || ds.MaxEpoch != cs.Epoch {
		t.Errorf("stats diverge: topology %+v vs global %+v", ds, cs)
	}
	for i := range d.Stages {
		dr, dok := d.Stages[i].LastRule()
		cr, cok := c.Stages[i].LastRule()
		if !dok || !cok {
			t.Fatalf("stage %d: missing rule (topology %v, cluster %v)", i, dok, cok)
		}
		if dr.Limit != cr.Limit || dr.Action != cr.Action {
			t.Errorf("stage %d rule diverges: %+v vs %+v", i, dr, cr)
		}
	}

	// Routing degenerates to shard 0 / the single controller.
	if s, g := d.Router.Route(1); s != 0 || g != d.Router.Group(0).Leader() {
		t.Errorf("Route(1) = (%d, %p), want shard 0", s, g)
	}
	if moved, err := d.Router.Rebalance(ctx); err != nil || moved != 0 {
		t.Errorf("Rebalance = (%d, %v), want no-op", moved, err)
	}
}

func TestTopologySharded(t *testing.T) {
	d, err := sdscale.StartTopology(sdscale.Topology{Stages: 120, Jobs: 4, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	ctx := context.Background()

	if d.Router.NumShards() != 4 {
		t.Fatalf("NumShards = %d", d.Router.NumShards())
	}
	if _, err := d.RunControlCycle(ctx); err != nil {
		t.Fatal(err)
	}
	st := d.Router.Stats()
	if st.Children != 120 || len(st.Shards) != 4 {
		t.Fatalf("stats = %+v", st)
	}

	// Route agrees with the owning leader's membership.
	s, g := d.Router.Route(7)
	if g != d.Router.Group(s).Leader() {
		t.Errorf("Route(7) leader is not Shard(%d)", s)
	}

	if applied, err := d.Router.EnforceUniform(ctx, 1, sdscale.ActionPause, sdscale.Rates{}); err != nil || applied != 30 {
		t.Errorf("EnforceUniform = (%d, %v), want 30 stages paused", applied, err)
	}
	if n := d.Recorder().Summarize().Cycles; n != 1 {
		t.Errorf("summary cycles = %d, want 1", n)
	}
}

func TestTopologyHierarchical(t *testing.T) {
	d, err := sdscale.StartTopology(sdscale.Topology{Stages: 24, Jobs: 4, AggregatorFanIn: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	if n := len(d.Aggregators); n != 3 {
		t.Fatalf("aggregators = %d, want 3", n)
	}
	if _, err := d.RunControlCycle(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestTopologyValidate(t *testing.T) {
	cases := []struct {
		name string
		top  sdscale.Topology
		want string
	}{
		{"no stages", sdscale.Topology{Shards: 1}, "at least one stage"},
		{"negative shards", sdscale.Topology{Stages: 4, Shards: -1}, "Shards must be >= 1"},
		{"stages under shards", sdscale.Topology{Stages: 3, Shards: 4}, "cannot populate"},
		{"fan-in with standbys", sdscale.Topology{Stages: 100, AggregatorFanIn: 50, Standbys: 1}, "standby failover"},
		{"negative fan-in", sdscale.Topology{Stages: 4, AggregatorFanIn: -1}, "negative aggregator fan-in"},
		{"negative standbys", sdscale.Topology{Stages: 4, Shards: 1, Standbys: -1}, "negative standby"},
		{"standby quorum", sdscale.Topology{Stages: 4, Shards: 1, Standbys: 3}, "quorum"},
		{"fan-in with shards", sdscale.Topology{Stages: 4, Shards: 2, AggregatorFanIn: 2}, "exclusive"},
		{"placement unsharded", sdscale.Topology{Stages: 4, Shards: 1, Placement: func(uint64) int { return 0 }}, "requires Shards > 1"},
		{"placement with standbys", sdscale.Topology{Stages: 4, Shards: 2, Standbys: 1, Placement: func(uint64) int { return 0 }}, "incompatible with Standbys"},
		{"placement out of range", sdscale.Topology{Stages: 4, Shards: 2, Placement: func(uint64) int { return 2 }}, "have 2 shards"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.top.Validate()
			if err == nil {
				t.Fatal("Validate passed, want error")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}

	good := sdscale.Topology{Stages: 100, Shards: 4, Standbys: 2}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
}

// TestTopologyValidateMatchesBuild: Validate and StartTopology apply one rule
// set, so a spec validates exactly when it builds. Shards zero is one shard.
func TestTopologyValidateMatchesBuild(t *testing.T) {
	specs := []sdscale.Topology{
		{Stages: 4},
		{Stages: 4, Shards: 2},
		{Stages: 4, AggregatorFanIn: 2},
		{Stages: 4, Standbys: 1},
		{Stages: 3, Shards: 4},
		{Stages: 100, AggregatorFanIn: 50, Standbys: 1},
		{Stages: 4, Shards: 2, AggregatorFanIn: 2},
		{Stages: 4, Shards: -1},
		{Stages: 4, AggregatorFanIn: -1},
	}
	for _, spec := range specs {
		spec.Net = fastTestNet()
		verr := spec.Validate()
		d, berr := sdscale.StartTopology(spec)
		if berr == nil {
			if n := d.Router.NumShards(); n != max(spec.Shards, 1) {
				t.Errorf("%+v: built %d shards", spec, n)
			}
			d.Close()
		}
		if (verr == nil) != (berr == nil) {
			t.Errorf("%+v: Validate = %v, StartTopology = %v", spec, verr, berr)
		}
	}
}

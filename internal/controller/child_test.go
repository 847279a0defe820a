package controller

import (
	"slices"
	"testing"
	"time"

	"github.com/dsrhaslab/sdscale/internal/cyclemem"
	"github.com/dsrhaslab/sdscale/internal/wire"
)

// TestFilterChangedPartialBatch: of an aggregator batch whose rules were
// all sent before, one rule changes. Exactly that rule comes back, drawn
// from the subset slab when one is given and from the heap otherwise, and
// the cache holds it, so the next identical batch sends nothing.
func TestFilterChangedPartialBatch(t *testing.T) {
	rule := func(id uint64, data float64) wire.Rule {
		return wire.Rule{StageID: id, JobID: 1, Action: wire.ActionSetLimit, Limit: wire.Rates{data, 10}}
	}
	sent := []wire.Rule{rule(1, 100), rule(2, 100), rule(3, 100)}
	for _, tc := range []struct {
		name   string
		subset *cyclemem.Slab[wire.Rule]
	}{{"heap", nil}, {"slab", &cyclemem.Slab[wire.Rule]{}}} {
		t.Run(tc.name, func(t *testing.T) {
			var a cyclemem.Arena
			a.Begin()
			c := &child{}
			if got := c.filterChanged(slices.Clone(sent), &a, tc.subset); len(got) != 3 {
				t.Fatalf("first batch sent %v, want all three rules", got)
			}
			batch := []wire.Rule{rule(1, 100), rule(2, 250), rule(3, 100)}
			got := c.filterChanged(batch, &a, tc.subset)
			if len(got) != 1 || got[0] != batch[1] {
				t.Fatalf("partly changed batch sent %v, want only %v", got, batch[1])
			}
			if i, ok := c.findRule(2); !ok || c.lastRules[i] != batch[1] {
				t.Fatalf("cache holds %v, want %v", c.lastRules, batch[1])
			}
			if got := c.filterChanged(batch, &a, tc.subset); got != nil {
				t.Fatalf("unchanged batch sent %v, want nothing", got)
			}
		})
	}
}

// TestBreakerProbeSchedule pins the probe-interval defaults, the clamp that
// keeps the backoff cap at or above the base interval, and failProbe's
// doubling up to that cap.
func TestBreakerProbeSchedule(t *testing.T) {
	ms := time.Millisecond
	for _, tc := range []struct {
		name                 string
		probe, maxProbe      time.Duration
		wantProbe, wantMax   time.Duration
		delay, wantNextDelay time.Duration
	}{
		{"defaults", 0, 0, DefaultProbeInterval, DefaultMaxProbeInterval, 300 * ms, 600 * ms},
		{"negative", -ms, -ms, DefaultProbeInterval, DefaultMaxProbeInterval, 600 * ms, DefaultMaxProbeInterval},
		{"base above default cap", 3 * time.Second, 0, 3 * time.Second, 3 * time.Second, 3 * time.Second, 3 * time.Second},
		{"cap below base", 200 * ms, 100 * ms, 200 * ms, 200 * ms, 200 * ms, 200 * ms},
		{"cap above base", 50 * ms, 400 * ms, 50 * ms, 400 * ms, 100 * ms, 200 * ms},
		{"capped double", 50 * ms, 400 * ms, 50 * ms, 400 * ms, 300 * ms, 400 * ms},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bc := breakerConfig{ProbeInterval: tc.probe, MaxProbeInterval: tc.maxProbe}.withDefaults()
			if bc.ProbeInterval != tc.wantProbe || bc.MaxProbeInterval != tc.wantMax {
				t.Fatalf("probe %v cap %v, want %v and %v", bc.ProbeInterval, bc.MaxProbeInterval, tc.wantProbe, tc.wantMax)
			}
			now := time.Now()
			c := &child{probeDelay: tc.delay}
			c.failProbe(bc, now)
			if c.probeDelay != tc.wantNextDelay || !c.nextProbe.Equal(now.Add(tc.wantNextDelay)) {
				t.Fatalf("after a failed probe: delay %v, next probe in %v; want %v",
					c.probeDelay, c.nextProbe.Sub(now), tc.wantNextDelay)
			}
		})
	}
}

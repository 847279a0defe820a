package controller

import (
	"slices"
	"testing"
	"time"

	"github.com/dsrhaslab/sdscale/internal/cyclemem"
	"github.com/dsrhaslab/sdscale/internal/rpc"
	"github.com/dsrhaslab/sdscale/internal/stage"
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

// TestBreakerLockFreeReads: the breaker's lock-free reads agree with its
// state. recordSuccess on a child with failures short of the limit resets
// the count, so the next failures start from zero; a tripped child's first
// success readmits it, once, marking it dirty with a forced collect; and
// isQuarantined, and so split, follows every trip and readmission.
func TestBreakerLockFreeReads(t *testing.T) {
	const limit = 3
	bc := breakerConfig{MaxFailures: limit}.withDefaults()
	now := time.Now()
	m := newMemberSet()
	kids := make([]*child, 4)
	for i := range kids {
		kids[i] = &child{info: stage.Info{ID: uint64(i + 1)}}
		kids[i].cli.Store(&rpc.Client{}) // split reads its Err
		m.add(kids[i])
	}
	var s cycleScratch
	wantSplit := func(step string, quarantined ...*child) {
		t.Helper()
		active, q := s.split(m)
		if !slices.Equal(q, quarantined) || len(active)+len(q) != len(kids) {
			t.Fatalf("%s: split quarantined %d of %d children, want %d", step, len(q), len(kids), len(quarantined))
		}
		for _, c := range kids {
			if want := slices.Contains(quarantined, c); c.isQuarantined() != want {
				t.Fatalf("%s: child %d isQuarantined = %v, want %v", step, c.info.ID, !want, want)
			}
		}
	}
	// fail records n failures and reports which of them tripped the breaker.
	fail := func(c *child, n int) (tripped []int) {
		for i := 1; i <= n; i++ {
			if c.recordFailure(bc, now) {
				tripped = append(tripped, i)
			}
		}
		return tripped
	}
	wantSplit("healthy")

	a, b := kids[1], kids[2]
	if got := fail(a, limit-1); got != nil {
		t.Fatalf("failures %v of %d tripped the breaker", got, limit-1)
	}
	wantSplit("failing")
	if a.recordSuccess() {
		t.Fatal("a success on a child that was never quarantined readmitted it")
	}
	if got := fail(a, limit-1); got != nil {
		t.Fatalf("a success did not reset the failure count: failure %v after it tripped the breaker", got)
	}
	if got := fail(a, 1); !slices.Equal(got, []int{1}) {
		t.Fatal("the last failure of the limit did not trip the breaker")
	}
	if got := fail(b, limit+1); !slices.Equal(got, []int{limit}) {
		t.Fatalf("failures %v tripped the breaker, want only failure %d", got, limit)
	}
	wantSplit("tripped", a, b)
	if a.dirty || a.forceCollect {
		t.Fatal("a trip marked the child dirty")
	}

	if !a.recordSuccess() {
		t.Fatal("a quarantined child's first success did not readmit it")
	}
	if !a.dirty || !a.forceCollect {
		t.Fatalf("readmission left dirty %v and forceCollect %v, want both set", a.dirty, a.forceCollect)
	}
	if a.recordSuccess() {
		t.Fatal("a second success readmitted the child again")
	}
	wantSplit("one readmitted", b)
	if got := fail(a, limit-1); got != nil {
		t.Fatalf("readmission did not reset the failure count: failure %v tripped the breaker", got)
	}
	b.recordSuccess()
	wantSplit("both readmitted")
}

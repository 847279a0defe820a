package cluster

import (
	"context"
	"runtime/debug"
	"runtime/metrics"
	"testing"
	"time"

	"github.com/dsrhaslab/sdscale/internal/transport/simnet"
	"github.com/dsrhaslab/sdscale/internal/wire"
	"github.com/dsrhaslab/sdscale/internal/workload"
)

// TestSteadyCyclesMakeNoFleetSizedGarbage guards the rule that a steady
// control cycle makes no garbage that grows with the fleet (DESIGN.md §14).
// Set-up ends with a collection, so at GOGC=100 the next one is due when the
// heap has doubled its live set; a regime that makes a few hundred kilobytes
// of garbage per cycle at 10,000 stages reaches that within seconds and
// doubles the process's resident memory, one that makes a constant few
// kilobytes never does inside a run.
//
// Each shape runs at 1,000 and at 4,000 stages. After warm-up, the bytes the
// whole process allocates over a window of cycles (every role, every stage,
// the network) are read from runtime/metrics and divided by the cycles. A
// per-cycle cost that scales with the fleet shows up as the difference
// between the two sizes; the allowance covers a few constant-size buffers
// and the runtime's per-span accounting lag. Before the cycles drew their
// memory from the cycle arena, the hierarchical shapes copied every
// aggregator's stage list each cycle and the incremental shape allocated a
// slice per changed stage's rule and a message per push.
func TestSteadyCyclesMakeNoFleetSizedGarbage(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	if testing.Short() {
		t.Skip("builds fleets of 4,000 stages")
	}
	const (
		warmup, measured = 5, 20
		allowance        = 16 << 10 // bytes per cycle
		// pinned keeps every wall-clock timer from firing during the run,
		// so only the explicit pushes dirty the incremental fleet.
		pinned = time.Hour
	)
	shapes := []struct {
		name string
		cfg  Config
		push bool // a tenth of the stages push a delta before each cycle
	}{
		{"hierarchical", Config{Topology: Hierarchical, Aggregators: 4}, false},
		{"delegated", Config{Topology: Hierarchical, Aggregators: 4, Delegated: true}, false},
		{"flat-incremental", Config{
			Topology: Flat, Incremental: true, DeltaEnforcement: true,
			Workload:     workload.Constant{Rates: wire.Rates{1000, 100}},
			PushInterval: pinned, PushFloor: pinned, IncrementalFloor: pinned, StaleAfter: pinned,
		}, true},
	}
	sample := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	allocated := func() uint64 {
		metrics.Read(sample)
		return sample[0].Value.Uint64()
	}
	perCycle := func(t *testing.T, cfg Config, push bool, stages int) uint64 {
		// 4,000 stages exceed the simulated per-host connection limit a
		// flat controller is held to; the limit is not what this measures.
		cfg.Stages, cfg.Net = stages, simnet.Config{PropDelay: -1, MaxConnsPerHost: -1}
		c, err := Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		ctx := context.Background()
		cycle := func(i int) {
			if push {
				// Alternate the scale so every round changes the rules.
				scale := 1.1 + 0.2*float64(i%2)
				for j := 0; j < len(c.Stages); j += 10 {
					c.Stages[j].PushDelta(scale)
				}
				time.Sleep(2 * time.Millisecond) // let the controller ingest them
			}
			if _, err := c.RunControlCycle(ctx); err != nil {
				t.Fatalf("%d stages, cycle %d: %v", stages, i, err)
			}
		}
		for i := 0; i < warmup; i++ {
			cycle(i)
		}
		// No collection inside the window: one empties the sync.Pools the
		// RPC layer recycles calls and frame buffers through, and refilling
		// them is a one-off cost that scales with the fleet.
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		before := allocated()
		for i := warmup; i < warmup+measured; i++ {
			cycle(i)
		}
		return (allocated() - before) / measured
	}
	for _, s := range shapes {
		t.Run(s.name, func(t *testing.T) {
			small := perCycle(t, s.cfg, s.push, 1000)
			large := perCycle(t, s.cfg, s.push, 4000)
			t.Logf("bytes allocated per cycle: %d at 1,000 stages, %d at 4,000", small, large)
			if large > small+allowance {
				t.Errorf("a cycle at 4,000 stages allocates %d B, %d more than at 1,000; want at most %d more",
					large, large-small, allowance)
			}
		})
	}
}

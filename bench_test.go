// Benchmarks regenerating the paper's tables and figures as testing.B
// targets, plus ablations of the design choices DESIGN.md calls out.
//
// Each figure/table benchmark builds the corresponding deployment once per
// sub-benchmark and measures control cycles, reporting phase latencies and
// resource rates through b.ReportMetric. Node counts default to 1/20 of the
// paper's (500 nodes instead of 10,000) so `go test -bench=.` completes in
// minutes; set SDSCALE_BENCH_SCALE=1 to run the paper's sizes, or use
// `cmd/sdsbench` which defaults to paper scale and prints the formatted
// tables.
package sdscale_test

import (
	"context"
	"fmt"
	"os"
	"strconv"
	"testing"
	"time"

	"github.com/dsrhaslab/sdscale"
	"github.com/dsrhaslab/sdscale/internal/cluster"
	"github.com/dsrhaslab/sdscale/internal/experiment"
	"github.com/dsrhaslab/sdscale/internal/top500"
	"github.com/dsrhaslab/sdscale/internal/transport"
	"github.com/dsrhaslab/sdscale/internal/transport/simnet"
)

// benchScale returns the node-count scale factor for benchmarks.
func benchScale() float64 {
	if s := os.Getenv("SDSCALE_BENCH_SCALE"); s != "" {
		if v, err := strconv.ParseFloat(s, 64); err == nil && v > 0 && v <= 1 {
			return v
		}
	}
	return 0.05
}

// scaled applies the benchmark scale to a paper node count.
func scaled(n int) int {
	s := int(float64(n) * benchScale())
	if s < 2 {
		s = 2
	}
	return s
}

// buildBench constructs a deployment for benchmarking. Paper benchmarks use
// the blocking fan-out mode, reproducing the prototype's bound of FanOut
// calls in flight; BenchmarkFlatCycle compares it against the pipelined mode.
func buildBench(b *testing.B, cfg cluster.Config) *cluster.Cluster {
	b.Helper()
	if cfg.Net == (simnet.Config{}) {
		cfg.Net = experiment.DefaultNet()
	}
	cfg.FanOutMode = sdscale.FanOutBlocking
	c, err := cluster.Build(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(c.Close)
	return c
}

// runCycles measures b.N control cycles on a built cluster and reports
// phase latencies (ms) and network rates (MB/s) as benchmark metrics.
func runCycles(b *testing.B, c *cluster.Cluster) {
	b.Helper()
	ctx := context.Background()
	// Warmup.
	if _, err := c.RunControlCycle(ctx); err != nil {
		b.Fatal(err)
	}
	c.Recorder().Reset()
	uc := cluster.NewUsageCollector(c)

	b.ResetTimer()
	uc.Start()
	for i := 0; i < b.N; i++ {
		if _, err := c.RunControlCycle(ctx); err != nil {
			b.Fatal(err)
		}
	}
	global, agg, _ := uc.Stop()
	b.StopTimer()

	s := c.Recorder().Summarize()
	msOf := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	b.ReportMetric(msOf(s.Collect.Mean), "collect-ms")
	b.ReportMetric(msOf(s.Compute.Mean), "compute-ms")
	b.ReportMetric(msOf(s.Enforce.Mean), "enforce-ms")
	b.ReportMetric(msOf(s.Total.Mean), "cycle-ms")
	b.ReportMetric(global.TxMBps, "global-tx-MBps")
	b.ReportMetric(global.RxMBps, "global-rx-MBps")
	if len(c.Aggregators) > 0 || len(c.Globals) > 1 {
		b.ReportMetric(agg.TxMBps, "agg-tx-MBps")
		b.ReportMetric(agg.CPUPercent, "agg-cpu-pct")
	}
	b.ReportMetric(global.CPUPercent, "global-cpu-pct")
	b.ReportMetric(global.MemGB(), "global-mem-GB")
}

// BenchmarkTable1 regenerates the paper's Table I (a formatting benchmark:
// the dataset is static).
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(top500.Table()) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkFig4Flat regenerates Fig. 4: flat-design control-cycle latency
// by node count. One sub-benchmark per x-axis point.
func BenchmarkFig4Flat(b *testing.B) {
	for _, nodes := range experiment.FlatNodeCounts {
		n := scaled(nodes)
		b.Run(fmt.Sprintf("nodes=%d", n), func(b *testing.B) {
			c := buildBench(b, cluster.Config{Topology: cluster.Flat, Stages: n})
			runCycles(b, c)
		})
	}
}

// BenchmarkTable2FlatResources regenerates Table II: the flat global
// controller's resource utilization (reported as benchmark metrics).
func BenchmarkTable2FlatResources(b *testing.B) {
	n := scaled(2500)
	b.Run(fmt.Sprintf("nodes=%d", n), func(b *testing.B) {
		c := buildBench(b, cluster.Config{Topology: cluster.Flat, Stages: n})
		runCycles(b, c)
	})
}

// BenchmarkFig5Hierarchical regenerates Fig. 5: hierarchical latency at the
// paper's 10,000-node scale (scaled) by aggregator count.
func BenchmarkFig5Hierarchical(b *testing.B) {
	nodes := scaled(experiment.HierNodes)
	for _, aggs := range experiment.HierAggregatorCounts {
		b.Run(fmt.Sprintf("nodes=%d/aggs=%d", nodes, aggs), func(b *testing.B) {
			c := buildBench(b, cluster.Config{Topology: cluster.Hierarchical, Stages: nodes, Aggregators: aggs})
			runCycles(b, c)
		})
	}
}

// BenchmarkTable3HierResources regenerates Table III: per-role resource
// utilization in the hierarchy (metrics: global-*, agg-*).
func BenchmarkTable3HierResources(b *testing.B) {
	nodes := scaled(experiment.HierNodes)
	for _, aggs := range []int{4, 20} {
		b.Run(fmt.Sprintf("aggs=%d", aggs), func(b *testing.B) {
			c := buildBench(b, cluster.Config{Topology: cluster.Hierarchical, Stages: nodes, Aggregators: aggs, Jobs: 4})
			runCycles(b, c)
		})
	}
}

// BenchmarkFig6FlatVsHier regenerates Fig. 6: flat vs single-aggregator
// hierarchy at 2,500 (scaled) nodes.
func BenchmarkFig6FlatVsHier(b *testing.B) {
	nodes := scaled(experiment.CrossoverNodes)
	b.Run(fmt.Sprintf("flat/nodes=%d", nodes), func(b *testing.B) {
		c := buildBench(b, cluster.Config{Topology: cluster.Flat, Stages: nodes})
		runCycles(b, c)
	})
	b.Run(fmt.Sprintf("hier-1agg/nodes=%d", nodes), func(b *testing.B) {
		c := buildBench(b, cluster.Config{Topology: cluster.Hierarchical, Stages: nodes, Aggregators: 1})
		runCycles(b, c)
	})
}

// BenchmarkTable4FlatVsHierResources regenerates Table IV: per-role
// resource utilization for both designs at 2,500 (scaled) nodes.
func BenchmarkTable4FlatVsHierResources(b *testing.B) {
	nodes := scaled(experiment.CrossoverNodes)
	b.Run("flat", func(b *testing.B) {
		c := buildBench(b, cluster.Config{Topology: cluster.Flat, Stages: nodes, Jobs: 4})
		runCycles(b, c)
	})
	b.Run("hier-1agg", func(b *testing.B) {
		c := buildBench(b, cluster.Config{Topology: cluster.Hierarchical, Stages: nodes, Aggregators: 1, Jobs: 4})
		runCycles(b, c)
	})
}

// BenchmarkConnLimit regenerates the §IV-A observation: building a flat
// control plane right at the connection limit succeeds, and the failure
// past it is immediate. ns/op is the cost of a full at-limit build+teardown.
func BenchmarkConnLimit(b *testing.B) {
	const limit = 50
	net := experiment.DefaultNet()
	net.MaxConnsPerHost = limit
	for i := 0; i < b.N; i++ {
		c, err := cluster.Build(cluster.Config{Topology: cluster.Flat, Stages: limit, Net: net})
		if err != nil {
			b.Fatal(err)
		}
		c.Close()
		if _, err := cluster.Build(cluster.Config{Topology: cluster.Flat, Stages: limit + 1, Net: net}); err == nil {
			b.Fatal("build past the connection limit succeeded")
		}
	}
}

// BenchmarkAblationParallelFanout isolates DESIGN.md decision #1: the
// bounded fan-out pool at the global controller. Wider pools shorten the
// collect/enforce phases until the per-host processing model (or the
// machine) saturates.
func BenchmarkAblationParallelFanout(b *testing.B) {
	nodes := scaled(2500)
	for _, fanout := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("fanout=%d", fanout), func(b *testing.B) {
			c := buildBench(b, cluster.Config{Topology: cluster.Flat, Stages: nodes, FanOut: fanout})
			runCycles(b, c)
		})
	}
}

// BenchmarkAblationAggregation isolates DESIGN.md decision #2: aggregators
// pre-aggregating per-job metrics versus forwarding raw per-stage reports.
// Compare global-rx-MBps and global-cpu-pct between the two modes.
func BenchmarkAblationAggregation(b *testing.B) {
	nodes := scaled(experiment.HierNodes)
	for _, raw := range []bool{false, true} {
		name := "preaggregate"
		if raw {
			name = "forward-raw"
		}
		b.Run(name, func(b *testing.B) {
			c := buildBench(b, cluster.Config{
				Topology:    cluster.Hierarchical,
				Stages:      nodes,
				Aggregators: 4,
				Jobs:        4,
				ForwardRaw:  raw,
			})
			runCycles(b, c)
		})
	}
}

// BenchmarkAblationDelegation isolates the §VI delegated hierarchy: the
// global ships O(jobs) budgets instead of O(stages) rules and aggregators
// compute the rules locally. Compare global-tx-MBps and global-cpu-pct.
func BenchmarkAblationDelegation(b *testing.B) {
	nodes := scaled(experiment.HierNodes)
	for _, delegated := range []bool{false, true} {
		name := "central-rules"
		if delegated {
			name = "delegated-budgets"
		}
		b.Run(name, func(b *testing.B) {
			c := buildBench(b, cluster.Config{
				Topology:    cluster.Hierarchical,
				Stages:      nodes,
				Aggregators: 4,
				Jobs:        4,
				Delegated:   delegated,
			})
			runCycles(b, c)
		})
	}
}

// BenchmarkAblationAlgorithms compares control algorithms end to end
// (DESIGN.md decision #3): cycle latency is dominated by collect/enforce,
// so this shows algorithm choice is not the scalability bottleneck — the
// paper's premise for studying the control plane's structure instead.
func BenchmarkAblationAlgorithms(b *testing.B) {
	nodes := scaled(1250)
	for _, name := range []string{"psfa", "uniform", "weighted-static", "maxmin", "strict-priority"} {
		b.Run(name, func(b *testing.B) {
			alg, err := sdscale.NewAlgorithm(name)
			if err != nil {
				b.Fatal(err)
			}
			c := buildBench(b, cluster.Config{Topology: cluster.Flat, Stages: nodes, Algorithm: alg})
			runCycles(b, c)
		})
	}
}

// BenchmarkAblationProcModel quantifies what the per-host processing model
// adds over raw in-process execution (DESIGN.md §1 substitution table).
func BenchmarkAblationProcModel(b *testing.B) {
	nodes := scaled(2500)
	for _, model := range []struct {
		name string
		net  simnet.Config
	}{
		{"modeled", experiment.DefaultNet()},
		{"raw", simnet.Config{PropDelay: -1}},
	} {
		b.Run(model.name, func(b *testing.B) {
			c := buildBench(b, cluster.Config{Topology: cluster.Flat, Stages: nodes, Net: model.net})
			runCycles(b, c)
		})
	}
}

// BenchmarkFlatCycle measures the flat control cycle's dispatch cost at
// fixed fleet sizes, comparing the pipelined fan-out (up to GOMAXPROCS
// issuers, unbounded window) against the prototype's bounded pool (FanOut
// issuers, one call in flight each). The network is raw (no modeled delays
// or processing costs, no connection limit), so ns/op and allocs/op isolate
// the RPC dispatch path itself: frame encoding, call bookkeeping, and
// goroutine scheduling. Run with -benchmem; BENCH_cycle.json records the
// results.
func BenchmarkFlatCycle(b *testing.B) {
	for _, nodes := range []int{1000, 5000, 10000} {
		for _, mode := range []sdscale.FanOutMode{sdscale.FanOutPipelined, sdscale.FanOutBlocking} {
			b.Run(fmt.Sprintf("%dk/%s", nodes/1000, mode), func(b *testing.B) {
				c := cachedBenchCluster(b, fmt.Sprintf("flat-%d-%s", nodes, mode), cluster.Config{
					Topology:   cluster.Flat,
					Stages:     nodes,
					FanOutMode: mode,
					// Raw transport: disable the propagation/processing
					// model and the per-host connection limit (a flat
					// controller at 5k/10k exceeds the default 2,500).
					Net: simnet.Config{PropDelay: -1, MaxConnsPerHost: -1},
				})
				ctx := context.Background()
				if _, err := c.RunControlCycle(ctx); err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := c.RunControlCycle(ctx); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
	// The converged, delta-quiet regime: constant demand with delta
	// enforcement, so after warmup the enforce fan-out vanishes and the
	// cycle is collects only — the best case for the v2 codec's delta-coded
	// floats and the reply-reuse decode path.
	b.Run("10k/steady", func(b *testing.B) {
		c := cachedBenchCluster(b, "flat-10k-steady", cluster.Config{
			Topology:         cluster.Flat,
			Stages:           10000,
			FanOutMode:       sdscale.FanOutPipelined,
			DeltaEnforcement: true,
			Workload:         sdscale.ConstantWorkload{Rates: sdscale.Rates{1000, 100}},
			Net:              simnet.Config{PropDelay: -1, MaxConnsPerHost: -1},
		})
		ctx := context.Background()
		// A few warmup cycles reach quiescence (rules settle, then stop
		// flowing) before the measured window.
		for i := 0; i < 3; i++ {
			if _, err := c.RunControlCycle(ctx); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := c.RunControlCycle(ctx); err != nil {
				b.Fatal(err)
			}
		}
	})
	// Same converged regime, but on the event-driven incremental path: with
	// no stage pushing a delta and no membership change, the controller's
	// dirty-set stays empty and the whole collect/compute/enforce cycle is
	// skipped — the quiesced floor for the control plane's per-cycle cost.
	// The liveness floors are pinned far out: they are wall-clock timers
	// sized for seconds-long production cycle periods, and this loop runs
	// thousands of cycles per second, so a 1s heartbeat wave would land in
	// some measured windows and not others.
	b.Run("10k/quiesced-incremental", func(b *testing.B) {
		c := cachedBenchCluster(b, "flat-10k-quiesced", cluster.Config{
			Topology:         cluster.Flat,
			Stages:           10000,
			FanOutMode:       sdscale.FanOutPipelined,
			DeltaEnforcement: true,
			Incremental:      true,
			IncrementalFloor: time.Hour,
			PushFloor:        time.Hour,
			Workload:         sdscale.ConstantWorkload{Rates: sdscale.Rates{1000, 100}},
			Net:              simnet.Config{PropDelay: -1, MaxConnsPerHost: -1},
		})
		ctx := context.Background()
		// Warmup: the first incremental cycle full-collects every
		// never-reported stage; the following ones converge the rules. The
		// first enforcement clamps every stage's usage, which its push loop
		// notices on its next ~100ms sample tick — so wait out the push
		// cadence and drain those one-time deltas before the timer starts,
		// leaving the fleet genuinely quiesced.
		for i := 0; i < 3; i++ {
			if _, err := c.RunControlCycle(ctx); err != nil {
				b.Fatal(err)
			}
		}
		time.Sleep(250 * time.Millisecond)
		for i := 0; i < 2; i++ {
			if _, err := c.RunControlCycle(ctx); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := c.RunControlCycle(ctx); err != nil {
				b.Fatal(err)
			}
		}
	})
	// The bursty regime between the full cycle and the quiesced floor: each
	// measured cycle, 10% of the fleet pushes a perturbed ReportDelta (the
	// scale alternates so the rules genuinely change), and the incremental
	// controller reacts — K-sized ingest, full-fleet compute from the arena,
	// K-sized delta enforce. This is the "effort proportional to
	// disturbance" row: bytes/op must track the 1,000-child dirty set, not
	// the 10,000-child fleet.
	b.Run("10k/bursty-10pct", func(b *testing.B) {
		c := cachedBenchCluster(b, "flat-10k-bursty", cluster.Config{
			Topology:         cluster.Flat,
			Stages:           10000,
			FanOutMode:       sdscale.FanOutPipelined,
			DeltaEnforcement: true,
			Incremental:      true,
			IncrementalFloor: time.Hour,
			PushFloor:        time.Hour,
			Workload:         sdscale.ConstantWorkload{Rates: sdscale.Rates{1000, 100}},
			Net:              simnet.Config{PropDelay: -1, MaxConnsPerHost: -1},
		})
		ctx := context.Background()
		for i := 0; i < 3; i++ {
			if _, err := c.RunControlCycle(ctx); err != nil {
				b.Fatal(err)
			}
		}
		time.Sleep(250 * time.Millisecond)
		for i := 0; i < 2; i++ {
			if _, err := c.RunControlCycle(ctx); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			scale := 1.1 + 0.2*float64(i%2)
			for j := 0; j < len(c.Stages); j += 10 {
				c.Stages[j].PushDelta(scale)
			}
			if _, err := c.RunControlCycle(ctx); err != nil {
				b.Fatal(err)
			}
		}
	})
	// The quiesced-incremental regime with the durable write-ahead store
	// enabled: the steady state mutates nothing, so the WAL sits on the
	// mutation path without being exercised — the delta against
	// quiesced-incremental is durability's tax on the control plane's hot
	// loop (budgeted under 5% ns/op with zero added allocations;
	// BENCH_cycle.json gates it).
	b.Run("10k/quiesced-durable", func(b *testing.B) {
		c := cachedBenchCluster(b, "flat-10k-quiesced-durable", cluster.Config{
			Topology:         cluster.Flat,
			Stages:           10000,
			FanOutMode:       sdscale.FanOutPipelined,
			DeltaEnforcement: true,
			Incremental:      true,
			IncrementalFloor: time.Hour,
			PushFloor:        time.Hour,
			Workload:         sdscale.ConstantWorkload{Rates: sdscale.Rates{1000, 100}},
			DataDir:          benchDataDir(b),
			Net:              simnet.Config{PropDelay: -1, MaxConnsPerHost: -1},
		})
		ctx := context.Background()
		for i := 0; i < 3; i++ {
			if _, err := c.RunControlCycle(ctx); err != nil {
				b.Fatal(err)
			}
		}
		time.Sleep(250 * time.Millisecond)
		for i := 0; i < 2; i++ {
			if _, err := c.RunControlCycle(ctx); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := c.RunControlCycle(ctx); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// benchClusters caches BenchmarkFlatCycle's and BenchmarkShardedCycle's
// fleets across the trial (b.N=1) and timed runs of one `go test` process —
// including `-count` repetitions: the testing package re-invokes the
// benchmark function per run, and rebuilding a 10,000- or 100,000-stage
// fleet each time would cost more than every measurement combined. The
// clusters are never closed — they live until process exit, which is also
// why each sub-benchmark re-runs its warmup/quiescing protocol on reuse
// (cheap once converged) instead of assuming pristine state.
var benchClusters = map[string]*cluster.Cluster{}

func cachedBenchCluster(b *testing.B, key string, cfg cluster.Config) *cluster.Cluster {
	b.Helper()
	if c, ok := benchClusters[key]; ok {
		return c
	}
	c, err := cluster.Build(cfg)
	if err != nil {
		b.Fatal(err)
	}
	benchClusters[key] = c
	return c
}

// benchWALDir is the process-lifetime data directory for the cached durable
// fleet. b.TempDir would be removed after the first run, pulling the WAL out
// from under the cached cluster on `-count` repetitions.
var benchWALDir string

func benchDataDir(b *testing.B) string {
	b.Helper()
	if benchWALDir == "" {
		d, err := os.MkdirTemp("", "sdscale-bench-wal-")
		if err != nil {
			b.Fatal(err)
		}
		benchWALDir = d
	}
	return benchWALDir
}

// BenchmarkShardedCycle measures the sharded control plane's whole-fleet
// cycle through the routing tier: every shard leader runs its cycle
// concurrently and the routed cycle's cost is the slowest shard, not the
// sum. The full variant at 10k children is the direct comparison against
// BenchmarkFlatCycle/10k/pipelined — same fleet, same cold full cycle, four
// leaders instead of one. The 100k quiesced-incremental variant is the
// scale target the single controller cannot reach at all (a 100k cold fan
// -out on one leader breaks the cycle-period budget outright): four shards
// of 25k children each in the converged event-driven regime, where the
// routed cycle is four concurrent dirty-set scans. BENCH_cycle.json records
// and gates both rows.
func BenchmarkShardedCycle(b *testing.B) {
	b.Run("10k/4shards/full", func(b *testing.B) {
		c := cachedBenchCluster(b, "sharded-10k-full", cluster.Config{
			Topology:   cluster.Flat,
			Stages:     10000,
			Shards:     4,
			FanOutMode: sdscale.FanOutPipelined,
			Net:        simnet.Config{PropDelay: -1, MaxConnsPerHost: -1},
		})
		ctx := context.Background()
		if _, err := c.RunControlCycle(ctx); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := c.RunControlCycle(ctx); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("100k/4shards/quiesced-incremental", func(b *testing.B) {
		c := cachedBenchCluster(b, "sharded-100k-quiesced", cluster.Config{
			Topology:         cluster.Flat,
			Stages:           100000,
			Shards:           4,
			FanOutMode:       sdscale.FanOutPipelined,
			DeltaEnforcement: true,
			Incremental:      true,
			IncrementalFloor: time.Hour,
			PushFloor:        time.Hour,
			// In production the 100k stage-side push samplers run on 100k
			// separate compute nodes; at the default 100ms interval this
			// in-process fleet would take one million samples per second on
			// the benchmark host and the measurement would be sampler
			// scheduling, not the routed cycle. A long interval models
			// "stage CPU lives elsewhere" — the controllers' quiesced scan,
			// the quantity under measure, is unaffected (the workload is
			// constant, so the samplers would push nothing either way).
			PushInterval: time.Hour,
			Workload:     sdscale.ConstantWorkload{Rates: sdscale.Rates{1000, 100}},
			Net:          simnet.Config{PropDelay: -1, MaxConnsPerHost: -1},
		})
		ctx := context.Background()
		// Same quiescing protocol as FlatCycle/10k/quiesced-incremental:
		// converge the rules, wait out the stages' push cadence, drain the
		// one-time clamp deltas.
		for i := 0; i < 3; i++ {
			if _, err := c.RunControlCycle(ctx); err != nil {
				b.Fatal(err)
			}
		}
		time.Sleep(250 * time.Millisecond)
		for i := 0; i < 2; i++ {
			if _, err := c.RunControlCycle(ctx); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := c.RunControlCycle(ctx); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFlatCycleTraced is BenchmarkFlatCycle's 1k configurations with
// span tracing enabled: the delta against the untraced run is the tracing
// overhead (budgeted under 2%; TestTracingOverheadUnderBudget enforces it).
func BenchmarkFlatCycleTraced(b *testing.B) {
	for _, mode := range []sdscale.FanOutMode{sdscale.FanOutPipelined, sdscale.FanOutBlocking} {
		b.Run(fmt.Sprintf("1k/%s", mode), func(b *testing.B) {
			c, err := cluster.Build(cluster.Config{
				Topology:   cluster.Flat,
				Stages:     1000,
				FanOutMode: mode,
				Tracing:    true,
				Net:        simnet.Config{PropDelay: -1, MaxConnsPerHost: -1},
			})
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(c.Close)
			ctx := context.Background()
			if _, err := c.RunControlCycle(ctx); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.RunControlCycle(ctx); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRegistrationChurn measures dynamic membership: one stage
// registering with a live control plane per iteration (the HPC job churn
// the paper's §II motivates).
func BenchmarkRegistrationChurn(b *testing.B) {
	// The controller keeps one dialed connection per registered stage;
	// lift the connection limit so b.N can exceed 2,500 registrations
	// (this bench measures registration cost, not the §IV-A limit).
	net := simnet.New(simnet.Config{MaxConnsPerHost: -1})
	g, err := sdscale.StartGlobal(sdscale.GlobalConfig{
		Network:    net.Host("global"),
		ListenAddr: ":0",
		Capacity:   sdscale.Rates{1e6, 1e5},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer g.Close()
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		host := net.Host(fmt.Sprintf("stage-%d", i))
		v, err := sdscale.StartVirtualStage(sdscale.StageConfig{
			ID: uint64(i + 1), JobID: uint64(i%8 + 1), Weight: 1, Network: host,
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := stageRegister(ctx, host, g.Addr(), v); err != nil {
			b.Fatal(err)
		}
	}
}

// stageRegister adapts the façade types to the stage registration helper.
func stageRegister(ctx context.Context, network transport.Network, addr string, v *sdscale.VirtualStage) error {
	return sdscale.RegisterStage(ctx, network, addr, v.Info())
}

// BenchmarkFutureCoordinatedFlat measures the paper's §VI future-work
// design — a coordinated flat control plane of meshed shard leaders — at the
// 10,000-node (scaled) size, for comparison with BenchmarkFig5Hierarchical.
func BenchmarkFutureCoordinatedFlat(b *testing.B) {
	nodes := scaled(experiment.HierNodes)
	for _, peers := range []int{4, 20} {
		b.Run(fmt.Sprintf("nodes=%d/peers=%d", nodes, peers), func(b *testing.B) {
			c := buildBench(b, cluster.Config{Topology: cluster.Coordinated, Stages: nodes, Shards: peers})
			runCycles(b, c)
		})
	}
}

// BenchmarkAblationDeltaEnforcement quantifies skipping unchanged rules:
// under the stress workload demand never changes, so after the first cycle
// delta mode eliminates the enforce fan-out entirely — a bound on what the
// optimization saves for stable workloads (and exactly the behavior the
// paper's stress methodology intentionally avoids).
func BenchmarkAblationDeltaEnforcement(b *testing.B) {
	nodes := scaled(2500)
	for _, delta := range []bool{false, true} {
		name := "full-enforce"
		if delta {
			name = "delta-enforce"
		}
		b.Run(name, func(b *testing.B) {
			c := buildBench(b, cluster.Config{Topology: cluster.Flat, Stages: nodes, DeltaEnforcement: delta})
			runCycles(b, c)
		})
	}
}

package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"github.com/dsrhaslab/sdscale/internal/cluster"
	"github.com/dsrhaslab/sdscale/internal/controller"
	"github.com/dsrhaslab/sdscale/internal/stage"
	"github.com/dsrhaslab/sdscale/internal/transport"
	"github.com/dsrhaslab/sdscale/internal/transport/simnet"
	"github.com/dsrhaslab/sdscale/internal/transport/tcpnet"
	"github.com/dsrhaslab/sdscale/internal/wire"
	"github.com/dsrhaslab/sdscale/internal/workload"
)

// Transport labels printed in the host stamp: neither injects message delay,
// so every latency below is processor (and, on TCP, kernel) time only.
const (
	simnetRaw   = "simnet-raw"
	tcpLoopback = "tcp-loopback"
)

// pinned is the value every wall-clock timer of the incremental workload is
// set to, so none fires inside a run (see README, "Pinned timers").
const pinned = time.Hour

// dirtyStride selects the pushed share of the incremental fleet: every
// dirtyStride-th stage pushes a delta before each cycle.
const dirtyStride = 10

// spec is one workload's fixed shape.
type spec struct {
	name      string
	transport string
	stages    int
	warmup    int // cycles run before the window opens
	why       string
	build     func(n int, seed int64) (*fleet, error)
}

var specs = []spec{
	{
		name: "flat-full-10k", transport: simnetRaw, stages: 10000, warmup: 6,
		why:   "flat design, 10k stages, full collect-compute-enforce: rpc dispatch, wire codec and controller fan-out do the work",
		build: buildFlatFull,
	},
	{
		name: "hier-full-10k", transport: simnetRaw, stages: 10000, warmup: 6,
		why:   "4 aggregators x 2,500 stages: the global does O(aggregators) work, isolating the aggregator path and pre-aggregation",
		build: buildHierFull,
	},
	{
		name: "flat-incr-10k", transport: simnetRaw, stages: 10000, warmup: 6,
		why:   "incremental cycle with 10% of stages pushing a delta per cycle: push ingest, cached compute, delta enforce; no collect fan-out",
		build: buildFlatIncr,
	},
	{
		name: "tcp-full-1k", transport: tcpLoopback, stages: 1000, warmup: 20,
		why:   "1,000 stages over loopback TCP, full cycle: the only workload where transport (syscalls, socket buffers) dominates",
		build: buildTCPFull,
	},
}

func findSpec(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// fleet is a built deployment seen from outside: the handles the harness
// drives and reads, all of them accessors the program already exports.
type fleet struct {
	stages []*stage.Virtual
	global *controller.Global
	// meter is charged with the top controller's traffic.
	meter *transport.Meter
	// aggMeters and aggBusy instrument the aggregator tier (hierarchical
	// only): bytes, and the busy-time meter each aggregator charges its
	// aggregation and client-side marshal time to.
	aggMeters []*transport.Meter
	aggBusy   []func() time.Duration
	// pusher is set on the incremental workload only.
	pusher *pusher
	close  func()
}

var rawNet = simnet.Config{PropDelay: -1, MaxConnsPerHost: -1}

func fromCluster(cfg cluster.Config, seed int64) (*fleet, error) {
	cfg.Net = rawNet
	cfg.Net.Seed = seed + 1 // simnet treats 0 as "default"; the seed only feeds jitter, which is off
	cfg.FanOutMode = controller.FanOutPipelined
	c, err := cluster.Build(cfg)
	if err != nil {
		return nil, err
	}
	f := &fleet{
		stages: c.Stages,
		global: c.Global,
		meter:  c.GlobalRole.Meter,
		close:  c.Close,
	}
	for _, r := range c.AggregatorRoles {
		f.aggMeters = append(f.aggMeters, r.Meter)
		f.aggBusy = append(f.aggBusy, r.CPU.Busy)
	}
	return f, nil
}

func buildFlatFull(n int, seed int64) (*fleet, error) {
	return fromCluster(cluster.Config{Topology: cluster.Flat, Stages: n}, seed)
}

func buildHierFull(n int, seed int64) (*fleet, error) {
	return fromCluster(cluster.Config{Topology: cluster.Hierarchical, Stages: n, Aggregators: 4}, seed)
}

func buildFlatIncr(n int, seed int64) (*fleet, error) {
	f, err := fromCluster(cluster.Config{
		Topology:         cluster.Flat,
		Stages:           n,
		Incremental:      true,
		DeltaEnforcement: true,
		Workload:         workload.Constant{Rates: wire.Rates{1000, 100}},
		PushInterval:     pinned,
		PushFloor:        pinned,
		IncrementalFloor: pinned,
		StaleAfter:       pinned,
	}, seed)
	if err != nil {
		return nil, err
	}
	f.pusher = &pusher{fleet: f, offset: int(seed % dirtyStride), phase: int(seed / dirtyStride % 2)}
	return f, nil
}

// buildTCPFull assembles the flat design by hand over loopback TCP, the way
// a multi-host deployment does: the controller listens, every stage listens
// on its own port and registers, and the controller dials back.
func buildTCPFull(n int, _ int64) (*fleet, error) {
	ctx := context.Background()
	network := tcpnet.New()
	f := &fleet{meter: &transport.Meter{}}
	f.close = func() {
		if f.global != nil {
			f.global.Close()
		}
		for _, v := range f.stages {
			v.Close()
		}
	}
	g, err := controller.StartGlobal(controller.GlobalConfig{
		Network:    network,
		ListenAddr: "127.0.0.1:0",
		Capacity:   wire.Rates{500, 50}.Scale(float64(n)),
		Meter:      f.meter,
	})
	if err != nil {
		return nil, err
	}
	f.global = g
	for i := 0; i < n; i++ {
		v, err := stage.StartVirtual(stage.Config{
			ID: uint64(i + 1), JobID: uint64(i%16 + 1), Weight: 1,
			Network: network, ListenAddr: "127.0.0.1:0",
		})
		if err != nil {
			f.close()
			return nil, fmt.Errorf("stage %d: %w", i+1, err)
		}
		f.stages = append(f.stages, v)
		if err := stage.Register(ctx, network, g.Addr(), v.Info()); err != nil {
			f.close()
			return nil, fmt.Errorf("register stage %d: %w", i+1, err)
		}
	}
	if got := g.NumChildren(); got != n {
		f.close()
		return nil, fmt.Errorf("controller holds %d of %d stages after registration", got, n)
	}
	return f, nil
}

// pusher dirties a fixed tenth of the incremental fleet before each cycle
// and then waits until the controller has ingested every push, so the cycle
// never races its own input.
type pusher struct {
	fleet  *fleet
	offset int // first pushed stage index, from the seed
	phase  int // which of the two scales goes first, from the seed
	// frameBytes is what the controller receives for one round of pushes at
	// each scale parity, learned during warm-up.
	frameBytes [2]uint64
	// timeouts counts barrier waits that gave up.
	timeouts int
}

// barrierLimit bounds one ingestion wait; a healthy round takes well under a
// millisecond per hundred pushes.
const barrierLimit = 500 * time.Millisecond

// calibrationWait is how long a warm-up round waits before reading what one
// round of pushes adds to the controller's receive meter.
const calibrationWait = 20 * time.Millisecond

func (p *pusher) count() int {
	n := len(p.fleet.stages)
	return (n - p.offset + dirtyStride - 1) / dirtyStride
}

// push issues the round for cycle i: the scale alternates between 1.1 and
// 1.3 so consecutive rounds genuinely change the reports and the rules.
func (p *pusher) push(i int, calibrate bool) {
	parity := (i + p.phase) % 2
	scale := 1.1 + 0.2*float64(parity)
	rx0 := p.fleet.meter.Rx()
	for j := p.offset; j < len(p.fleet.stages); j += dirtyStride {
		p.fleet.stages[j].PushDelta(scale)
	}
	if calibrate {
		time.Sleep(calibrationWait)
		p.frameBytes[parity] = p.fleet.meter.Rx() - rx0
		return
	}
	// Ingestion barrier: the controller's read loops charge the meter as
	// they read each push frame, just before folding it into the dirty set.
	deadline := time.Now().Add(barrierLimit)
	for p.fleet.meter.Rx()-rx0 < p.frameBytes[parity] {
		if time.Now().After(deadline) {
			p.timeouts++
			return
		}
		runtime.Gosched()
	}
	// Let the read loop that made the last read finish folding it in.
	runtime.Gosched()
}

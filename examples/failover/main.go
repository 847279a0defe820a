// Failover: what happens to QoS when controllers die — the dependability
// question the paper raises in §VI.
//
// A flat control plane manages four stages for two jobs. The demo kills
// the global controller mid-run and shows that:
//
//  1. The data plane stays up: stages keep enforcing their last rules
//     (storage never becomes unavailable — but the rules go stale).
//  2. A replacement controller re-adopts the same stages and re-converges
//     in a single control cycle, even though the workload changed while
//     the control plane was down.
//  3. The failure also works the other way: when a *stage* drops off the
//     network, the controller quarantines it after a few failed calls and
//     keeps controlling the survivors on degraded cycles; once the
//     partition heals, a half-open heartbeat probe readmits the stage.
//  4. None of acts 1-3 needs an operator. With a warm standby configured,
//     the same crash is detected by lease expiry: the standby promotes
//     itself with a bumped leadership epoch, adopts the fleet from its
//     mirrored state, and resumes cycles — while epoch fencing makes every
//     stage reject the old primary's messages, forcing it to step down
//     instead of split-braining the rule set.
//
// This example deliberately assembles every role by hand (StartVirtualStage,
// StartGlobal, AddStage, an explicitly wired standby) so each act of the
// failure story is visible. Declaratively, act 5's wiring is
// sdscale.StartTopology(sdscale.Topology{..., Standbys: 1}) — and
// Standbys: 2 per shard with Shards > 1 gives every shard its own majority
// quorum (see sdsbench -exp shard).
//
// Run with:
//
//	go run ./examples/failover
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"time"

	"github.com/dsrhaslab/sdscale"
)

func main() {
	net := sdscale.NewSimNet(sdscale.SimNetConfig{})
	ctx := context.Background()

	// Job 1 is busy from the start; job 2 is idle and wakes up after the
	// controller has died, so the stale rules visibly starve it.
	steady := sdscale.ConstantWorkload{Rates: sdscale.Rates{1000, 100}}
	wakesUp := sdscale.RampWorkload{
		From: sdscale.Rates{0, 0},
		To:   sdscale.Rates{1000, 100},
		Over: 2 * time.Second,
	}

	var stages []*sdscale.VirtualStage
	for i := 0; i < 4; i++ {
		var gen sdscale.Generator = steady // stages 1, 3: job 1
		if i%2 == 1 {
			gen = wakesUp // stages 2, 4: job 2
		}
		st, err := sdscale.StartVirtualStage(sdscale.StageConfig{
			ID: uint64(i + 1), JobID: uint64(i%2 + 1), Weight: 1,
			Generator: gen,
			Network:   net.Host(fmt.Sprintf("stage-%d", i+1)),
		})
		if err != nil {
			log.Fatalf("stage: %v", err)
		}
		defer st.Close()
		stages = append(stages, st)
	}

	startController := func(name string, capacity sdscale.Rates) *sdscale.Global {
		g, err := sdscale.StartGlobal(sdscale.GlobalConfig{
			Network:  net.Host(name),
			Capacity: capacity,
			// Fast breaker settings so the quarantine act of the demo
			// plays out in milliseconds rather than seconds.
			CallTimeout:   200 * time.Millisecond,
			MaxFailures:   2,
			ProbeInterval: 10 * time.Millisecond,
		})
		if err != nil {
			log.Fatalf("controller: %v", err)
		}
		for _, st := range stages {
			if err := g.AddStage(ctx, st.Info()); err != nil {
				log.Fatalf("attach: %v", err)
			}
		}
		return g
	}

	show := func(when string) {
		fmt.Printf("%-34s", when)
		for _, st := range stages {
			r, ok := st.LastRule()
			if !ok {
				fmt.Printf("  [none]")
				continue
			}
			fmt.Printf("  %6.0f", r.Limit[sdscale.ClassData])
		}
		fmt.Println()
	}

	fmt.Println("per-stage data-IOPS limits (jobs: s1,s3 = job 1; s2,s4 = job 2; capacity 2000):")
	fmt.Printf("%-34s  %6s  %6s  %6s  %6s\n", "", "s1", "s2", "s3", "s4")

	// Act 1: job 2 is idle; PSFA gives job 1 the whole capacity.
	g1 := startController("controller-1", sdscale.Rates{2000, 200})
	if _, err := g1.RunCycle(ctx); err != nil {
		log.Fatal(err)
	}
	show("running (job 2 idle)")
	fmt.Println("  -> no false allocation: the idle job holds nothing")

	// Act 2: the controller dies; job 2 wakes up under stale rules.
	g1.Close()
	time.Sleep(2200 * time.Millisecond) // job 2's demand ramps to full
	show("controller DOWN, job 2 woke up")
	fmt.Println("  -> storage stays available, but job 2 is starved by stale zero limits")

	// Act 3: a replacement adopts the fleet and fixes the allocation.
	g2 := startController("controller-2", sdscale.Rates{2000, 200})
	if _, err := g2.RunCycle(ctx); err != nil {
		log.Fatal(err)
	}
	show("replacement's first cycle")
	fmt.Println("  -> one cycle after takeover both jobs hold their fair 500/stage")

	// Act 4: stage 4 drops off the network. After MaxFailures failed calls
	// the controller quarantines it — cycles keep completing for the
	// survivors, with stage 4's last report standing in (degraded mode).
	net.Host("stage-4").SetPartitioned(true)
	for g2.Stats().Quarantined == 0 {
		if _, err := g2.RunCycle(ctx); err != nil {
			log.Fatal(err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	show("stage 4 partitioned -> quarantined")
	fmt.Printf("  -> quarantined stages: %v; cycles keep running degraded\n", g2.Stats().QuarantinedIDs)

	// The partition heals: the next half-open heartbeat probe succeeds and
	// the stage is readmitted into the control loop — never evicted.
	net.Host("stage-4").SetPartitioned(false)
	for g2.Stats().Quarantined != 0 {
		if _, err := g2.RunCycle(ctx); err != nil {
			log.Fatal(err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := g2.RunCycle(ctx); err != nil {
		log.Fatal(err)
	}
	show("partition healed -> readmitted")
	fmt.Println("  -> stage 4 is back under control without re-registration")
	fmt.Printf("  -> fault telemetry: %v\n", g2.Stats().Faults)

	// Act 5: acts 2-3 needed an operator to start the replacement. A warm
	// standby automates the whole takeover: the primary replicates its
	// state (membership, last rules, job weights) to the standby every
	// SyncInterval, implicitly renewing a leadership lease; when the lease
	// expires, the standby promotes itself.
	g2.Close()
	sb, err := sdscale.StartGlobal(sdscale.GlobalConfig{
		Network:    net.Host("standby"),
		ListenAddr: ":0", // re-homing stages register here after a failover
		Capacity:   sdscale.Rates{2000, 200},
		Standby:    true,
		// Fast failover settings so the act plays out in milliseconds: the
		// primary syncs every 25ms and is declared dead after 150ms.
		LeaseTimeout:  150 * time.Millisecond,
		SyncInterval:  25 * time.Millisecond,
		CallTimeout:   200 * time.Millisecond,
		MaxFailures:   2,
		ProbeInterval: 10 * time.Millisecond,
	})
	if err != nil {
		log.Fatalf("standby: %v", err)
	}
	defer sb.Close()
	g3, err := sdscale.StartGlobal(sdscale.GlobalConfig{
		Network:       net.Host("controller-3"),
		ListenAddr:    ":0",
		Capacity:      sdscale.Rates{2000, 200},
		Epoch:         1, // leadership epoch; the standby will promote to 2
		StandbyAddrs:  []string{sb.Addr()},
		LeaseTimeout:  150 * time.Millisecond,
		SyncInterval:  25 * time.Millisecond,
		CallTimeout:   200 * time.Millisecond,
		MaxFailures:   2,
		ProbeInterval: 10 * time.Millisecond,
	})
	if err != nil {
		log.Fatalf("primary: %v", err)
	}
	defer g3.Close()
	for _, st := range stages {
		if err := g3.AddStage(ctx, st.Info()); err != nil {
			log.Fatalf("attach: %v", err)
		}
	}
	if _, err := g3.RunCycle(ctx); err != nil {
		log.Fatal(err)
	}
	show("primary with warm standby")

	// Wait until replication has caught up — the standby mirrors the
	// primary's leadership epoch once the first StateSync lands. A standby
	// is only as good as its last sync.
	for sb.Epoch() < g3.Epoch() {
		time.Sleep(5 * time.Millisecond)
	}

	// The standby runs passively, watching its lease.
	sbCtx, stopStandby := context.WithCancel(ctx)
	sbDone := make(chan error, 1)
	go func() { sbDone <- sb.Run(sbCtx, 25*time.Millisecond) }()

	// Crash the primary. Nobody restarts anything: the standby's lease
	// expires, it promotes itself at epoch 2, re-homes all four stages from
	// its mirror, and control cycles resume.
	net.Host("controller-3").SetPartitioned(true)
	for sb.NumChildren() < len(stages) {
		time.Sleep(5 * time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond) // let the new primary complete a cycle
	show("primary crashed -> standby took over")
	fmt.Printf("  -> promoted at epoch %d, %d/%d stages re-homed, control gap %v\n",
		sb.Epoch(), sb.NumChildren(), len(stages),
		sb.Stats().Faults.MaxControlGap.Round(time.Millisecond))

	// The old primary comes back believing it still leads — a zombie. Its
	// first calls are fenced (every stage now rejects its stale epoch), so
	// it steps down instead of overwriting its successor's rules.
	net.Host("controller-3").SetPartitioned(false)
	var deposed error
	for i := 0; i < 20; i++ {
		if _, err := g3.RunCycle(ctx); err != nil {
			deposed = err
			break
		}
		time.Sleep(25 * time.Millisecond)
	}
	fmt.Printf("  -> zombie primary fenced: %v (deposed=%v)\n",
		deposed, errors.Is(deposed, sdscale.ErrDeposed))
	var fenced uint64
	for _, st := range stages {
		fenced += st.FencedCalls()
	}
	fmt.Printf("  -> stages now fence at epoch %d; stale-epoch messages rejected: %d at stages, %d at the standby\n",
		stages[0].Epoch(), fenced, sb.FencedSyncs())

	stopStandby()
	<-sbDone
	fmt.Printf("  -> standby fault telemetry: %v\n", sb.Stats().Faults)
}

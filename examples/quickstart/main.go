// Quickstart: the smallest complete sdscale control plane, declared as a
// Topology.
//
// One spec — four virtual data-plane stages over two jobs, one shard, a
// configured PFS capacity — is handed to StartTopology, which builds the
// simulated network, the stages, and the controller, and returns the
// running Deployment. The PFS is oversubscribed 2:1 (4,000 IOPS demanded,
// 2,000 admitted), so the PSFA algorithm halves every stage's admitted
// rate; the four limits sum exactly to the capacity.
//
// The same deployment scales out declaratively: Shards: 4 partitions the
// fleet across four concurrently active controllers behind a routing tier,
// Standbys: 2 gives each shard a warm quorum, AggregatorFanIn picks the
// paper's hierarchical design instead. For wiring roles one by one — custom
// per-stage weights, mixed workloads — see the manual-assembly examples
// (burst, failover, metadata, priority).
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"github.com/dsrhaslab/sdscale"
)

func main() {
	ctx := context.Background()

	// The whole deployment in one declarative spec: every stage demands
	// 1,000 data IOPS and 100 metadata ops/s; the controller may admit
	// half of that.
	d, err := sdscale.StartTopology(sdscale.Topology{
		Stages:   4,
		Jobs:     2,
		Shards:   1, // the classic single global controller
		Workload: sdscale.ConstantWorkload{Rates: sdscale.Rates{1000, 100}},
		Capacity: sdscale.Rates{2000, 200},
	})
	if err != nil {
		log.Fatalf("start topology: %v", err)
	}
	defer d.Close()

	// Run a few control cycles and watch the rules converge.
	for cycle := 1; cycle <= 3; cycle++ {
		b, err := d.RunControlCycle(ctx)
		if err != nil {
			log.Fatalf("cycle %d: %v", cycle, err)
		}
		fmt.Printf("cycle %d: collect %v, compute %v, enforce %v\n",
			cycle, b.Collect, b.Compute, b.Enforce)
	}

	fmt.Println("\nper-stage enforcement (PSFA, 2:1 oversubscribed, capacity 2000 data IOPS):")
	for _, st := range d.Stages {
		rule, ok := st.LastRule()
		if !ok {
			log.Fatalf("stage %d got no rule", st.Info().ID)
		}
		shard, _ := d.Router.Route(rule.StageID)
		fmt.Printf("  stage %d (job %d, shard %d): data %6.1f IOPS, meta %5.1f ops/s\n",
			rule.StageID, rule.JobID, shard,
			rule.Limit[sdscale.ClassData], rule.Limit[sdscale.ClassMeta])
	}

	// One unified snapshot for the whole deployment, however many shards.
	st := d.Router.Stats()
	fmt.Printf("\ndeployment: %d shard(s), %d children, epoch %d, %d quarantined\n",
		len(st.Shards), st.Children, st.MaxEpoch, st.Quarantined)
	fmt.Println("every limit is half its demand — PSFA arbitrated the 2:1 oversubscription;")
	fmt.Println("the four limits sum to the configured capacity — work conserving.")
}

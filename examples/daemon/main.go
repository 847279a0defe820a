// Daemon configuration: the JSON file `sdsctl serve` runs from, driven
// through the public API.
//
// The daemon's contract is a single config file: the Topology spec fields
// (stages, jobs, shards, capacity, ...) plus the runtime knobs the serve
// loop owns (control interval, job weights, the SLO elasticity block).
// This example parses one, lowers it onto a Topology, starts the
// deployment, and then hot-reloads two edited versions against it the way
// the daemon does on SIGHUP: a safe edit (fleet grow + QoS retune) is
// absorbed live with zero dropped cycles, and an unsafe edit (changing the
// job count) is rejected wholesale — nothing applied, the running config
// stays in force, and the error names the offending field.
//
// For the real thing — the serve loop, the polling file watcher, SIGHUP,
// graceful SIGTERM drain — write this file to disk and run:
//
//	sdsctl serve -config sdscale.json
//
// Run with:
//
//	go run ./examples/daemon
package main

import (
	"context"
	"fmt"
	"log"

	"github.com/dsrhaslab/sdscale"
)

// base is a complete daemon config: an 8-stage fleet over 2 jobs, a 2:1
// oversubscribed PFS, cycles every 250ms.
const base = `{
	"stages":   8,
	"jobs":     2,
	"capacity": [4000, 400],
	"workload": "constant:1000,100",
	"interval": "250ms"
}`

// grown is the same deployment after an operator edit: four more stages
// and double weight for job 1. Both changes are safe deltas — the daemon
// applies them between two control cycles.
const grown = `{
	"stages":     12,
	"jobs":       2,
	"capacity":   [4000, 400],
	"workload":   "constant:1000,100",
	"interval":   "250ms",
	"jobWeights": {"1": 2}
}`

// unsafe tries to change the job count, which would re-partition every
// stage's identity; that needs a restart, so the reload must be rejected.
const unsafe = `{
	"stages":   12,
	"jobs":     4,
	"capacity": [4000, 400],
	"workload": "constant:1000,100",
	"interval": "250ms"
}`

func main() {
	ctx := context.Background()

	cf, err := sdscale.ParseConfig([]byte(base))
	if err != nil {
		log.Fatalf("parse config: %v", err)
	}
	topo, err := sdscale.TopologyFromConfig(cf)
	if err != nil {
		log.Fatalf("lower config: %v", err)
	}
	d, err := sdscale.StartTopology(topo)
	if err != nil {
		log.Fatalf("start topology: %v", err)
	}
	defer d.Close()

	if _, err := d.RunControlCycle(ctx); err != nil {
		log.Fatalf("cycle: %v", err)
	}
	fmt.Printf("running: %d stages, interval %v\n", d.Router.Stats().Stages, cf.CycleInterval())

	// A safe reload: DiffConfig classifies the edit, ApplyConfig absorbs
	// it. The daemon does exactly this at the next cycle boundary after
	// SIGHUP or a watcher-detected file change.
	next, err := sdscale.ParseConfig([]byte(grown))
	if err != nil {
		log.Fatalf("parse edited config: %v", err)
	}
	delta, err := sdscale.ApplyConfig(ctx, d, cf, next)
	if err != nil {
		log.Fatalf("apply config: %v", err)
	}
	cf = next
	if _, err := d.RunControlCycle(ctx); err != nil {
		log.Fatalf("cycle after reload: %v", err)
	}
	fmt.Printf("reloaded (%v): now %d stages, every stage holds a rule: %v\n",
		delta, d.Router.Stats().Stages, allRuled(d))

	// An unsafe reload: the whole edit is rejected and the running config
	// stays in force — there is no partial application.
	bad, err := sdscale.ParseConfig([]byte(unsafe))
	if err != nil {
		log.Fatalf("parse unsafe config: %v", err)
	}
	if _, err := sdscale.ApplyConfig(ctx, d, cf, bad); err == nil {
		log.Fatal("unsafe config was not rejected")
	} else {
		fmt.Printf("rejected: %v\n", err)
	}
	fmt.Printf("still running: %d stages under the previous config\n", d.Router.Stats().Stages)
}

// allRuled reports whether every stage holds an enforced rule — the
// zero-rule-loss invariant a reload must preserve.
func allRuled(d *sdscale.Deployment) bool {
	for _, st := range d.Stages {
		if _, ok := st.LastRule(); !ok {
			return false
		}
	}
	return true
}

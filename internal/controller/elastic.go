package controller

import (
	"github.com/dsrhaslab/sdscale/internal/stage"
	"github.com/dsrhaslab/sdscale/internal/wire"
)

// This file is the controller-side surface the elasticity and hot-reload
// machinery (internal/cluster, internal/elastic, the sdsctl daemon) drives:
// mutating an aggregator's managed set, re-declaring an aggregator child's
// stage list to the global controller, and re-tuning job weights and
// capacity on a running control plane. The child's stage list becomes
// mutable here, so every reader goes through the lock-guarded accessors
// below.

// stageList returns the stages behind this child (nil for a stage child).
// The list is returned itself, not copied: setStageList replaces it whole and
// nothing writes into it, so a reader holds a stable snapshot.
func (c *child) stageList() []stage.Info {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stages
}

// setStageList replaces the child's stage list.
func (c *child) setStageList(stages []stage.Info) {
	list := append([]stage.Info(nil), stages...)
	c.mu.Lock()
	c.stages = list
	c.mu.Unlock()
}

// RemoveStage releases a stage from this aggregator's managed set, closing
// the connection. It reports whether the stage was managed here. The
// caller (the cluster's re-homing machinery) is responsible for the stage
// having — or promptly getting — a new owner.
func (a *Aggregator) RemoveStage(id uint64) bool {
	c := a.members.remove(id)
	if c == nil {
		return false
	}
	c.retire()
	return true
}

// SetAggregatorStages re-declares the stage list behind an aggregator
// child after stages were re-homed between aggregators. The global
// controller computes rules for every stage through this list (paper
// §IV-B), so it must track re-homing moves; the update is also logged to
// the store so recovery re-adopts the current placement, not the original
// one. It reports whether id names a known aggregator child.
func (g *Global) SetAggregatorStages(id uint64, stages []stage.Info) bool {
	c := g.members.get(id)
	if c == nil || c.role != wire.RoleAggregator {
		return false
	}
	c.setStageList(stages)
	for _, s := range stages {
		g.noteJob(s.JobID, s.Weight)
	}
	g.logRegister(c)
	return true
}

// SetJobWeight re-tunes one job's QoS weight on a running controller; the
// next compute phase allocates with it. Non-positive weights reset to the
// default weight 1. The change is logged to the store.
func (g *Global) SetJobWeight(jobID uint64, weight float64) {
	g.noteJob(jobID, weight)
}

// SetCapacity replaces the administrator-configured PFS capacity the
// control algorithm allocates against; the next compute phase uses it.
// Shard resizes re-split the global capacity over the new shard set with
// this.
func (g *Global) SetCapacity(r wire.Rates) {
	g.jobs.mu.Lock()
	g.jobs.capacity = r
	g.jobs.mu.Unlock()
}

// Capacity returns the capacity currently allocated against.
func (g *Global) Capacity() wire.Rates {
	g.jobs.mu.Lock()
	defer g.jobs.mu.Unlock()
	return g.jobs.capacity
}

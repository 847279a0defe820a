package controller

import (
	"github.com/dsrhaslab/sdscale/internal/store"
	"github.com/dsrhaslab/sdscale/internal/telemetry"
)

// ControllerStats is a point-in-time snapshot of a controller's operational
// state: membership, breaker health, leadership, and fan-out pipeline
// telemetry. It is the one-call observability surface shared by Global and
// Aggregator.
//
// Consistency: Stats is safe to call at any time, including from another
// goroutine while a control cycle is running, but the snapshot is only
// per-field consistent. Each field is read atomically (or under the mutex
// that guards it), yet different fields are read at slightly different
// instants — a snapshot taken mid-cycle may, for example, show a child
// already quarantined whose failed call has not yet landed in CallErrors,
// or an Epoch one ahead of the Faults promotion counters. Cross-field
// invariants therefore only hold on a quiescent controller. Callers that
// need a coherent multi-field view should pause cycles first; monitoring
// and debugging callers get torn-free individual values either way.
type ControllerStats struct {
	// Children is the number of directly managed children (stages or
	// aggregators); Stages is the stage population reached through them.
	Children int
	Stages   int
	// Peers is the number of fellows of a Global in the coordinated flat
	// design (see Global.AddPeer); zero otherwise.
	Peers int
	// Quarantined counts children currently behind a tripped circuit
	// breaker; QuarantinedIDs lists them.
	Quarantined    int
	QuarantinedIDs []uint64
	// CallErrors is the cumulative count of failed child calls (excluding
	// ones the controller's own shutdown caused).
	CallErrors uint64
	// Evictions counts children permanently removed under EvictAfter.
	Evictions uint64
	// Epoch is the controller's current leadership epoch: the epoch it
	// leads with (Global) or the highest epoch it has seen (Aggregator).
	Epoch uint64
	// FencedCalls counts epoch-fencing events: stale-epoch rejections this
	// controller received (Global) or issued (Aggregator).
	FencedCalls uint64
	// Faults digests the fault-tolerance counters (quarantines,
	// readmissions, probes, degraded cycles, stale-report ages, ...).
	Faults telemetry.FaultSummary
	// Pipeline digests the fan-out dispatch telemetry (per-phase in-flight
	// gauges and per-cycle allocation counts).
	Pipeline telemetry.PipelineSnapshot
	// Store digests the durability layer (log size, fsync latency, snapshot
	// age, replay cost); nil when the controller runs without a store.
	Store *store.Stats
}

// Stats snapshots the controller's operational state.
func (g *Global) Stats() ControllerStats {
	st := g.snapshot()
	st.Stages = g.NumStages()
	st.Epoch = g.Epoch()
	st.FencedCalls = g.faults.FencedCalls()
	st.Peers = g.NumPeers()
	if g.cfg.Store != nil {
		ss := g.cfg.Store.Stats()
		st.Store = &ss
	}
	return st
}

// Stats snapshots the aggregator's operational state.
func (a *Aggregator) Stats() ControllerStats {
	st := a.snapshot()
	a.mu.Lock()
	st.Epoch, st.FencedCalls = a.epoch, a.fencedCalls
	a.mu.Unlock()
	return st
}

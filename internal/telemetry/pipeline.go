package telemetry

import (
	"runtime/metrics"
	"sync/atomic"
)

// Gauge tracks an instantaneous quantity and its high-water mark, e.g. the
// number of fan-out calls in flight during a cycle phase. All methods are
// safe for concurrent use.
type Gauge struct {
	cur  atomic.Int64
	peak atomic.Int64
}

// Add moves the gauge by n, updating the peak: one atomic add for a batch
// of calls entering (n > 0) or leaving (n < 0) at once.
func (g *Gauge) Add(n int64) {
	v := g.cur.Add(n)
	for {
		p := g.peak.Load()
		if v <= p || g.peak.CompareAndSwap(p, v) {
			return
		}
	}
}

// Current returns the instantaneous value.
func (g *Gauge) Current() int64 { return g.cur.Load() }

// Peak returns the highest value ever observed.
func (g *Gauge) Peak() int64 { return g.peak.Load() }

// PipelineStats instruments a controller's fan-out phases: how many child
// calls are in flight per phase, and how many heap objects each control
// cycle allocates — the two quantities the pipelined dispatch path is meant
// to move (in-flight up, allocations down).
type PipelineStats struct {
	// CollectInFlight gauges in-flight collect-phase calls.
	CollectInFlight Gauge
	// EnforceInFlight gauges in-flight enforce-phase calls.
	EnforceInFlight Gauge

	lastCycleAllocs atomic.Uint64
	totalAllocs     atomic.Uint64
	allocCycles     atomic.Uint64

	// Marshal-once accounting: sharedSends counts broadcast calls issued
	// from a shared frame (header + memcopy instead of a marshal),
	// sharedEncodes counts the encodes those frames actually performed (at
	// most one per codec version per frame), and replyReuses counts replies
	// decoded into recycled messages. sends/encodes is the per-cycle
	// marshal fan-in: 10,000 for a full flat broadcast.
	sharedSends   atomic.Uint64
	sharedEncodes atomic.Uint64
	replyReuses   Counter

	// Incremental-mode accounting: dirtyChildren is the dirty-set size the
	// last incremental cycle claimed, suppressedCollects counts per-child
	// collect calls the incremental mode skipped (the report cache was
	// already current), and suppressedEnforces counts per-child enforce
	// sends skipped because rule diffing found nothing new.
	dirtyChildren      atomic.Int64
	suppressedCollects atomic.Uint64
	suppressedEnforces atomic.Uint64

	// Compute-kernel and cycle-arena accounting: computeWorkers is the
	// worker count the last compute phase sharded across (1 = serial, 0 =
	// no compute ran), and the arena* counters mirror the controller's
	// cyclemem arena — generations begun, slab draws, draws served from
	// retained capacity, and draws that had to grow.
	computeWorkers                                atomic.Int64
	arenaGen, arenaTakes, arenaReuses, arenaGrows atomic.Uint64
}

// ArenaSnapshot mirrors a cycle arena's reuse counters (see
// internal/cyclemem). Reuses tracking Takes after warm-up is the signature
// of an allocation-free steady state; a growing Grows means the fleet or
// report volume outgrew the retained slabs.
type ArenaSnapshot struct {
	Generation, Takes, Reuses, Grows uint64
}

// RecordComputeWorkers stores how many workers the last compute phase used.
func (p *PipelineStats) RecordComputeWorkers(n int) { p.computeWorkers.Store(int64(n)) }

// ComputeWorkers returns the last compute phase's worker count.
func (p *PipelineStats) ComputeWorkers() int64 { return p.computeWorkers.Load() }

// RecordArena stores the controller's cycle-arena counters.
func (p *PipelineStats) RecordArena(a ArenaSnapshot) {
	p.arenaGen.Store(a.Generation)
	p.arenaTakes.Store(a.Takes)
	p.arenaReuses.Store(a.Reuses)
	p.arenaGrows.Store(a.Grows)
}

// Arena returns the last recorded cycle-arena counters.
func (p *PipelineStats) Arena() ArenaSnapshot {
	return ArenaSnapshot{
		Generation: p.arenaGen.Load(),
		Takes:      p.arenaTakes.Load(),
		Reuses:     p.arenaReuses.Load(),
		Grows:      p.arenaGrows.Load(),
	}
}

// RecordDirty stores the dirty-set size observed by the last incremental
// cycle.
func (p *PipelineStats) RecordDirty(n int) { p.dirtyChildren.Store(int64(n)) }

// DirtyChildren returns the last incremental cycle's dirty-set size.
func (p *PipelineStats) DirtyChildren() int64 { return p.dirtyChildren.Load() }

// AddSuppressedCollects counts n per-child collect calls skipped by the
// incremental mode.
func (p *PipelineStats) AddSuppressedCollects(n uint64) { p.suppressedCollects.Add(n) }

// SuppressedCollects returns the cumulative skipped-collect count.
func (p *PipelineStats) SuppressedCollects() uint64 { return p.suppressedCollects.Load() }

// AddSuppressedEnforces counts n per-child enforce sends skipped because the
// child's rules did not change.
func (p *PipelineStats) AddSuppressedEnforces(n uint64) { p.suppressedEnforces.Add(n) }

// SuppressedEnforces returns the cumulative skipped-enforce count.
func (p *PipelineStats) SuppressedEnforces() uint64 { return p.suppressedEnforces.Load() }

// AddSharedSends counts n broadcast calls issued from shared frames.
func (p *PipelineStats) AddSharedSends(n uint64) { p.sharedSends.Add(n) }

// AddSharedEncodes counts n encodes performed by shared frames.
func (p *PipelineStats) AddSharedEncodes(n uint64) { p.sharedEncodes.Add(n) }

// SharedSends returns the cumulative shared-frame call count.
func (p *PipelineStats) SharedSends() uint64 { return p.sharedSends.Load() }

// SharedEncodes returns the cumulative shared-frame encode count.
func (p *PipelineStats) SharedEncodes() uint64 { return p.sharedEncodes.Load() }

// ReuseCounter returns the counter that rpc clients and servers count into,
// each connection on a shard of its own, once per message decoded into a
// recycled instance — pass it as DialOptions.ReuseHits /
// ServerOptions.ReuseHits.
func (p *PipelineStats) ReuseCounter() *Counter { return &p.replyReuses }

// ReplyReuses returns the cumulative recycled-decode count.
func (p *PipelineStats) ReplyReuses() uint64 { return p.replyReuses.Load() }

// RecordCycleAllocs records one cycle's heap-object allocation count.
func (p *PipelineStats) RecordCycleAllocs(n uint64) {
	p.lastCycleAllocs.Store(n)
	p.totalAllocs.Add(n)
	p.allocCycles.Add(1)
}

// LastCycleAllocs returns the most recent cycle's allocation count.
func (p *PipelineStats) LastCycleAllocs() uint64 { return p.lastCycleAllocs.Load() }

// MeanCycleAllocs returns the mean allocation count per recorded cycle.
func (p *PipelineStats) MeanCycleAllocs() float64 {
	n := p.allocCycles.Load()
	if n == 0 {
		return 0
	}
	return float64(p.totalAllocs.Load()) / float64(n)
}

// Snapshot digests the stats for a point-in-time report.
func (p *PipelineStats) Snapshot() PipelineSnapshot {
	return PipelineSnapshot{
		CollectInFlight:     p.CollectInFlight.Current(),
		CollectInFlightPeak: p.CollectInFlight.Peak(),
		EnforceInFlight:     p.EnforceInFlight.Current(),
		EnforceInFlightPeak: p.EnforceInFlight.Peak(),
		LastCycleAllocs:     p.LastCycleAllocs(),
		MeanCycleAllocs:     p.MeanCycleAllocs(),
		SharedSends:         p.SharedSends(),
		SharedEncodes:       p.SharedEncodes(),
		ReplyReuses:         p.ReplyReuses(),
		DirtyChildren:       p.DirtyChildren(),
		SuppressedCollects:  p.SuppressedCollects(),
		SuppressedEnforces:  p.SuppressedEnforces(),
		ComputeWorkers:      p.ComputeWorkers(),
		Arena:               p.Arena(),
	}
}

// PipelineSnapshot is a point-in-time digest of PipelineStats.
type PipelineSnapshot struct {
	// CollectInFlight and EnforceInFlight are the instantaneous per-phase
	// in-flight call counts; the Peak variants are their high-water marks.
	// A pipelined peak lies between the largest issuer range and the child
	// count: each issuer charges its range once issued and releases it once
	// harvested, so ranges overlap only as far as their issuers do. Blocking
	// fan-out peaks at the configured parallelism bound.
	CollectInFlight     int64
	CollectInFlightPeak int64
	EnforceInFlight     int64
	EnforceInFlightPeak int64
	// LastCycleAllocs and MeanCycleAllocs count heap objects allocated
	// during control cycles, process-wide: in a single-process simulation
	// concurrent roles' allocations are attributed to whichever cycle is
	// running.
	LastCycleAllocs uint64
	MeanCycleAllocs float64
	// SharedSends counts broadcast calls issued from marshal-once shared
	// frames; SharedEncodes counts the encodes those frames performed.
	// Their ratio is the marshal fan-in the shared path achieved.
	SharedSends   uint64
	SharedEncodes uint64
	// ReplyReuses counts messages decoded into recycled instances on the
	// zero-alloc decode path.
	ReplyReuses uint64
	// DirtyChildren is the dirty-set size the last incremental cycle
	// claimed; SuppressedCollects and SuppressedEnforces count the per-child
	// calls the incremental mode avoided (collects answered from the report
	// cache, enforces skipped by rule diffing). All zero outside
	// incremental mode.
	DirtyChildren      int64
	SuppressedCollects uint64
	SuppressedEnforces uint64
	// ComputeWorkers is the worker count the last compute phase sharded
	// its rule emission across (1 = serial path); Arena mirrors the
	// controller's cycle-arena reuse counters.
	ComputeWorkers int64
	Arena          ArenaSnapshot
}

// allocsSampleName is the runtime/metrics counter of cumulative heap
// objects allocated. Reading it is cheap (no stop-the-world), so cycles can
// sample it at every boundary.
const allocsSampleName = "/gc/heap/allocs:objects"

// AllocsNow returns the process-wide cumulative count of allocated heap
// objects. Subtract two readings to count allocations across a section.
func AllocsNow() uint64 {
	sample := make([]metrics.Sample, 1)
	sample[0].Name = allocsSampleName
	metrics.Read(sample)
	if sample[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return sample[0].Value.Uint64()
}

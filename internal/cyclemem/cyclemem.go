// Package cyclemem provides generation-counted per-cycle memory reuse for
// the controllers' collect→compute→enforce hot path.
//
// A control cycle allocates the same family of buffers every iteration:
// reply slots, harvested reports, per-child rule batches, request messages,
// call handles. All of them are dead the moment the cycle ends, which makes
// them ideal arena tenants: instead of freeing, the arena advances a
// generation counter and every slab drawn from it resets to zero length on
// its first use in the new generation — the backing arrays survive, so a
// steady-state cycle allocates nothing.
//
// The generation counter doubles as an invalidation epoch: a RuleTable
// sealed in generation g answers lookups only while the arena is still in
// generation g. A stale read (a late goroutine touching last cycle's rules)
// misses instead of silently returning garbage from a reused array.
package cyclemem

import (
	"cmp"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/dsrhaslab/sdscale/internal/wire"
)

// Arena is the per-controller cycle allocator: one generation per control
// cycle, shared by every Slab and RuleTable the controller owns. Begin is
// called by the cycle loop; the counters may be read concurrently (Stats
// snapshots feed telemetry).
type Arena struct {
	gen    atomic.Uint64
	reuses atomic.Uint64
	grows  atomic.Uint64
}

// Begin starts a new generation, logically freeing everything drawn during
// the previous one. Slices returned by Take before this call must no longer
// be read or written.
func (a *Arena) Begin() uint64 { return a.gen.Add(1) }

// Gen returns the current generation.
func (a *Arena) Gen() uint64 { return a.gen.Load() }

// Stats is a point-in-time digest of the arena's reuse behaviour.
type Stats struct {
	// Generation counts cycles begun.
	Generation uint64
	// Takes counts slab draws; Reuses the draws served entirely from
	// retained capacity; Grows the draws that had to allocate. After
	// warm-up Reuses should track Takes and Grows should stay flat.
	Takes, Reuses, Grows uint64
}

// Stats snapshots the arena counters. Every take is a reuse or a grow.
func (a *Arena) Stats() Stats {
	s := Stats{Generation: a.gen.Load(), Reuses: a.reuses.Load(), Grows: a.grows.Load()}
	s.Takes = s.Reuses + s.Grows
	return s
}

// Slab is a growable buffer of T tied to an arena's generation. The first
// Take of a generation resets the slab to empty (retaining capacity);
// subsequent Takes in the same generation extend it, so one slab can serve
// several index-disjoint draws per cycle. Returned slices are valid only
// until the arena's next Begin. Not safe for concurrent Takes.
type Slab[T any] struct {
	buf []T
	gen uint64
}

// Take returns a zeroed slice of length n drawn from the slab. Zeroing
// matters: the retained array may hold pointers from the previous
// generation, which must not leak through as stale data (they are
// overwritten or read-as-zero, and the clear also unpins them for the GC).
func (s *Slab[T]) Take(a *Arena, n int) []T {
	if g := a.Gen(); s.gen != g {
		s.gen = g
		s.buf = s.buf[:0]
	}
	region, reused := extend(&s.buf, n)
	if reused {
		a.reuses.Add(1)
	} else {
		a.grows.Add(1)
	}
	return region
}

// extend grows *buf by n zeroed entries and returns them, capacity-clamped.
// It reports whether the retained capacity sufficed; otherwise the buffer
// doubles (at least), copying what it held.
func extend[T any](buf *[]T, n int) (region []T, reused bool) {
	start := len(*buf)
	need := start + n
	if reused = need <= cap(*buf); reused {
		*buf = (*buf)[:need]
		clear((*buf)[start:need])
	} else {
		grown := make([]T, need, max(need, 2*cap(*buf)))
		copy(grown, *buf)
		*buf = grown
	}
	return (*buf)[start:need:need], reused
}

// RuleTable is the per-cycle rule index: a flat, eventually StageID-sorted
// slice of rules replacing the map[stageID]Rule the compute phase used to
// build fresh every cycle. The lifecycle is Reset → (Slot | Append)* →
// Seal → Lookup*, all within one arena generation; a Lookup after the
// arena moved on reports a miss, so stale readers cannot observe a reused
// backing array mid-rewrite.
type RuleTable struct {
	a      *Arena
	gen    uint64
	rules  []wire.Rule
	sealed bool
}

// Reset binds the table to the arena's current generation and clears it,
// retaining capacity.
func (t *RuleTable) Reset(a *Arena) {
	t.a = a
	t.gen = a.Gen()
	t.rules = t.rules[:0]
	t.sealed = false
}

// Slot extends the table by n zeroed entries and returns them for
// index-aligned writes — the parallel compute kernel's workers each fill a
// disjoint range of one Slot. Must not be called after Seal.
func (t *RuleTable) Slot(n int) []wire.Rule {
	region, _ := extend(&t.rules, n)
	return region
}

// Seal sorts the table by (StageID, JobID), stably, making it ready for
// Lookup. Stability means entries with equal keys keep insertion order, so
// Lookup's last-match-wins reproduces exactly the overwrite semantics of
// the map it replaced. A table already in order, as one emitted from reports
// in member order is, is only checked: a stable sort would leave it as it is.
func (t *RuleTable) Seal() {
	if !slices.IsSortedFunc(t.rules, ruleOrder) {
		slices.SortStableFunc(t.rules, ruleOrder)
	}
	t.sealed = true
}

func ruleOrder(a, b wire.Rule) int {
	return cmp.Or(cmp.Compare(a.StageID, b.StageID), cmp.Compare(a.JobID, b.JobID))
}

// Lookup returns the rule addressed to stageID. It misses when the table
// was never sealed this generation or the arena has moved on (generation
// invalidation: the backing array may already be rewritten).
func (t *RuleTable) Lookup(stageID uint64) (wire.Rule, bool) {
	if !t.sealed || t.a == nil || t.gen != t.a.Gen() {
		return wire.Rule{}, false
	}
	// Find the first entry past stageID; the match, if any, is just before
	// it — the last inserted entry for the stage, matching map overwrite.
	i := sort.Search(len(t.rules), func(i int) bool { return t.rules[i].StageID > stageID })
	if i > 0 && t.rules[i-1].StageID == stageID {
		return t.rules[i-1], true
	}
	return wire.Rule{}, false
}

// Len returns the number of rules in the table.
func (t *RuleTable) Len() int { return len(t.rules) }

// Rules returns the table's backing slice (valid until the arena's next
// Begin). After Seal it is sorted by StageID.
func (t *RuleTable) Rules() []wire.Rule { return t.rules }

// ParallelFor runs fn over [0,n) split into contiguous disjoint ranges of
// near-equal size across up to workers workers and returns how many workers
// ran. The calling goroutine is the last worker: it runs the last range
// itself and then waits for the others. minPerWorker bounds the split so tiny
// inputs stay serial — below 2×minPerWorker, or with one worker, fn runs
// inline on the caller. fn must confine itself to index-disjoint writes;
// under that contract the result is byte-for-byte identical to the serial
// run regardless of worker count, which is what lets the compute kernel
// shard PSFA rule emission without perturbing the reproduction.
func ParallelFor(n, workers, minPerWorker int, fn func(start, end int)) int {
	if n <= 0 {
		return 0
	}
	if minPerWorker > 0 {
		workers = min(workers, n/minPerWorker)
	}
	if workers <= 1 {
		fn(0, n)
		return 1
	}
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for w := 0; w < workers-1; w++ {
		start, end := w*n/workers, (w+1)*n/workers
		go func() {
			defer wg.Done()
			fn(start, end)
		}()
	}
	fn((workers-1)*n/workers, n)
	wg.Wait()
	return workers
}

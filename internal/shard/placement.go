// Package shard partitions a control-plane fleet across N concurrently
// active global controllers. It supplies the two pieces a sharded
// deployment needs on top of the existing controller machinery: a
// deterministic child→shard placement (a consistent-hash ring, or a
// caller-supplied function) and a thin routing tier (Router) that directs
// per-child operations to the owning shard, fans cross-shard queries and
// uniform enforces out over all leaders, and implements shard handoff as
// re-homing with an epoch bump.
//
// The package deliberately adds no new failure-handling: each shard is a
// full PR 7 controller group (leader, quorum standbys, write-ahead store),
// and a shard leader's death is handled by that shard's own election
// exactly as in the single-Global deployment. Sharding only bounds the
// blast radius — the other shards' cycles never see the failure.
package shard

import (
	"sort"
)

// DefaultVirtualNodes is the per-shard virtual-node count of the default
// placement ring. 64 points per shard keeps the expected imbalance between
// shards under a few percent while the ring stays small enough to rebuild
// on every topology change.
const DefaultVirtualNodes = 64

// Ring places child IDs onto shards by consistent hashing: each shard owns
// the arc below each of its virtual points, so adding or removing one shard
// moves only ~1/N of the children — the property that keeps a Rebalance
// after a topology change proportional to the change, not the fleet.
type Ring struct {
	points []ringPoint // sorted by hash
	shards int
}

type ringPoint struct {
	hash  uint64
	shard int
}

// NewRing builds a placement ring over the given shard count.
// virtualNodes <= 0 selects DefaultVirtualNodes.
func NewRing(shards, virtualNodes int) *Ring {
	if shards < 1 {
		shards = 1
	}
	if virtualNodes <= 0 {
		virtualNodes = DefaultVirtualNodes
	}
	r := &Ring{points: make([]ringPoint, 0, shards*virtualNodes), shards: shards}
	for s := 0; s < shards; s++ {
		for v := 0; v < virtualNodes; v++ {
			r.points = append(r.points, ringPoint{hash: pointHash(s, v), shard: s})
		}
	}
	// Sort by hash with the shard index as tie-break, so a (vanishingly
	// unlikely) hash collision still places deterministically.
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].shard < r.points[j].shard
	})
	return r
}

// Place returns the shard owning childID: the shard of the first virtual
// point at or above the child's hash, wrapping past the top of the ring.
func (r *Ring) Place(childID uint64) int {
	if r.shards == 1 {
		return 0
	}
	h := mix(childID)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].shard
}

// pointHash keys shard s's v-th virtual point. The shard index is mixed
// before the virtual-node index is folded in, which domain-separates point
// hashes from child hashes: with a plain mix(s<<32|v), shard 0's v-th point
// would hash identically to child ID v, and every child ID below the
// virtual-node count would land on shard 0.
func pointHash(s, v int) uint64 {
	return mix(mix(uint64(s)+1) + uint64(v))
}

// mix is the splitmix64 finalizer: a fast, well-distributed 64-bit hash for
// the sequential IDs children typically carry. Sequential inputs must not
// land on adjacent ring positions, or shard 0 would own every small ID.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

package shard

import "testing"

func TestRingPlaceRangeAndDeterminism(t *testing.T) {
	r := NewRing(4, 0)
	if r.shards != 4 {
		t.Fatalf("shards = %d", r.shards)
	}
	for id := uint64(1); id <= 1000; id++ {
		s := r.Place(id)
		if s < 0 || s >= 4 {
			t.Fatalf("child %d placed on shard %d", id, s)
		}
		if again := NewRing(4, 0).Place(id); again != s {
			t.Fatalf("child %d: placement not deterministic (%d vs %d)", id, s, again)
		}
	}
}

func TestRingSingleShard(t *testing.T) {
	r := NewRing(1, 0)
	for id := uint64(1); id <= 100; id++ {
		if s := r.Place(id); s != 0 {
			t.Fatalf("child %d placed on shard %d with one shard", id, s)
		}
	}
}

func TestRingBalance(t *testing.T) {
	const shards, children = 4, 10000
	r := NewRing(shards, 0)
	counts := make([]int, shards)
	for id := uint64(1); id <= children; id++ {
		counts[r.Place(id)]++
	}
	// Consistent hashing is not perfectly uniform; 64 virtual nodes per
	// shard should keep every shard within 2x of the fair share.
	fair := children / shards
	for s, n := range counts {
		if n < fair/2 || n > fair*2 {
			t.Errorf("shard %d owns %d of %d children (fair share %d)", s, n, children, fair)
		}
	}
}

func TestRingMinimalDisruption(t *testing.T) {
	const children = 10000
	before := NewRing(4, 0)
	after := NewRing(5, 0)
	moved := 0
	for id := uint64(1); id <= children; id++ {
		if before.Place(id) != after.Place(id) {
			moved++
		}
	}
	// Growing 4 -> 5 shards should move roughly 1/5 of the children; a
	// modulo placement would move ~4/5. Assert well under half.
	if moved > children/2 {
		t.Errorf("adding one shard moved %d/%d children", moved, children)
	}
	if moved == 0 {
		t.Error("adding one shard moved no children")
	}
}

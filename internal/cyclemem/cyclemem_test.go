package cyclemem

import (
	"runtime"
	"slices"
	"sync/atomic"
	"testing"

	"github.com/dsrhaslab/sdscale/internal/wire"
)

func TestSlabReusesAcrossGenerations(t *testing.T) {
	var a Arena
	var s Slab[int]

	a.Begin()
	first := s.Take(&a, 100)
	if len(first) != 100 {
		t.Fatalf("Take(100) len = %d", len(first))
	}
	for i := range first {
		first[i] = i + 1
	}

	a.Begin()
	second := s.Take(&a, 100)
	if &first[0] != &second[0] {
		t.Fatal("new generation did not reuse the retained backing array")
	}
	for i, v := range second {
		if v != 0 {
			t.Fatalf("second[%d] = %d, want zeroed", i, v)
		}
	}

	st := a.Stats()
	if st.Generation != 2 || st.Takes != 2 || st.Grows != 1 || st.Reuses != 1 {
		t.Fatalf("stats = %+v, want gen=2 takes=2 grows=1 reuses=1", st)
	}
}

func TestSlabMultipleTakesAreDisjoint(t *testing.T) {
	var a Arena
	var s Slab[byte]
	a.Begin()
	x := s.Take(&a, 4)
	y := s.Take(&a, 4)
	for i := range x {
		x[i] = 'x'
	}
	for i := range y {
		y[i] = 'y'
	}
	if string(x) != "xxxx" || string(y) != "yyyy" {
		t.Fatalf("takes overlap: x=%q y=%q", x, y)
	}
	// Full slices: an append on x must not clobber y.
	if cap(x) != len(x) {
		t.Fatalf("take not capacity-clamped: len=%d cap=%d", len(x), cap(x))
	}
	if cap(s.buf) < 8 {
		t.Fatalf("slab cap = %d, want >= 8", cap(s.buf))
	}
}

func TestSlabZeroesPointerEntries(t *testing.T) {
	var a Arena
	var s Slab[*int]
	a.Begin()
	v := 7
	s.Take(&a, 3)[0] = &v
	a.Begin()
	for i, p := range s.Take(&a, 3) {
		if p != nil {
			t.Fatalf("entry %d retained pointer across generations", i)
		}
	}
}

func TestRuleTableLookup(t *testing.T) {
	var a Arena
	var tab RuleTable
	a.Begin()
	tab.Reset(&a)
	for _, id := range []uint64{30, 10, 20} {
		tab.rules = append(tab.rules, wire.Rule{StageID: id, JobID: 1, Limit: wire.Rates{float64(id)}})
	}
	if _, ok := tab.Lookup(10); ok {
		t.Fatal("unsealed table answered a lookup")
	}
	tab.Seal()
	for _, id := range []uint64{10, 20, 30} {
		r, ok := tab.Lookup(id)
		if !ok || r.Limit[0] != float64(id) {
			t.Fatalf("Lookup(%d) = %+v, %v", id, r, ok)
		}
	}
	if _, ok := tab.Lookup(15); ok {
		t.Fatal("Lookup(15) hit on a missing stage")
	}
	if tab.Len() != 3 {
		t.Fatalf("Len = %d", tab.Len())
	}
}

func TestRuleTableLastWriteWins(t *testing.T) {
	var a Arena
	var tab RuleTable
	a.Begin()
	tab.Reset(&a)
	tab.rules = append(tab.rules, wire.Rule{StageID: 5, JobID: 1, Limit: wire.Rates{1}})
	tab.rules = append(tab.rules, wire.Rule{StageID: 5, JobID: 1, Limit: wire.Rates{2}})
	tab.Seal()
	r, ok := tab.Lookup(5)
	if !ok || r.Limit[0] != 2 {
		t.Fatalf("Lookup(5) = %+v, %v; want the later entry (map overwrite semantics)", r, ok)
	}
}

// TestRuleTableSealOutOfOrderDuplicates: a table emitted out of StageID
// order with duplicate StageIDs seals into the stable (StageID, JobID)
// order — equal keys keep their insertion order — and Lookup answers the
// last entry written for a stage. A table already in order seals unchanged.
func TestRuleTableSealOutOfOrderDuplicates(t *testing.T) {
	var a Arena
	var tab RuleTable
	a.Begin()
	tab.Reset(&a)
	// Limit records the write order.
	for i, k := range [][2]uint64{{9, 1}, {4, 2}, {9, 1}, {4, 1}, {7, 1}, {4, 2}, {9, 1}, {1, 3}} {
		tab.rules = append(tab.rules, wire.Rule{StageID: k[0], JobID: k[1], Limit: wire.Rates{float64(i)}})
	}
	tab.Seal()
	want := [][3]uint64{{1, 3, 7}, {4, 1, 3}, {4, 2, 1}, {4, 2, 5}, {7, 1, 4}, {9, 1, 0}, {9, 1, 2}, {9, 1, 6}}
	for i, r := range tab.Rules() {
		if got := [3]uint64{r.StageID, r.JobID, uint64(r.Limit[0])}; got != want[i] {
			t.Fatalf("sealed entry %d is (stage, job, write) %v, want %v", i, got, want[i])
		}
	}
	for id, write := range map[uint64]float64{1: 7, 4: 5, 7: 4, 9: 6} {
		if r, ok := tab.Lookup(id); !ok || r.Limit[0] != write {
			t.Fatalf("Lookup(%d) = %+v, %v; want write %v, the stage's last", id, r, ok, write)
		}
	}
	sorted := slices.Clone(tab.Rules())
	tab.Seal()
	if !slices.Equal(tab.Rules(), sorted) {
		t.Fatal("sealing a sorted table reordered it")
	}

	// Past the sizes an insertion sort handles: equal keys still keep their
	// write order.
	tab.Reset(&a)
	for i := range 200 {
		tab.rules = append(tab.rules, wire.Rule{StageID: uint64(i * 7 % 5), JobID: 1, Limit: wire.Rates{float64(i)}})
	}
	tab.Seal()
	for i, r := range tab.Rules()[1:] {
		if prev := tab.Rules()[i]; prev.StageID == r.StageID && prev.Limit[0] > r.Limit[0] {
			t.Fatalf("stage %d's writes %v and %v sealed out of write order", r.StageID, prev.Limit[0], r.Limit[0])
		}
	}
}

func TestRuleTableGenerationInvalidation(t *testing.T) {
	var a Arena
	var tab RuleTable
	a.Begin()
	tab.Reset(&a)
	tab.rules = append(tab.rules, wire.Rule{StageID: 1})
	tab.Seal()
	if _, ok := tab.Lookup(1); !ok {
		t.Fatal("sealed table missed in its own generation")
	}
	a.Begin() // cycle ended: the table's memory is logically free
	if _, ok := tab.Lookup(1); ok {
		t.Fatal("stale table answered a lookup after the arena advanced")
	}
}

func TestRuleTableSlot(t *testing.T) {
	var a Arena
	var tab RuleTable
	a.Begin()
	tab.Reset(&a)
	slot := tab.Slot(4)
	for i := range slot {
		slot[i] = wire.Rule{StageID: uint64(10 - i)}
	}
	tab.Seal()
	if r, ok := tab.Lookup(7); !ok || r.StageID != 7 {
		t.Fatalf("Lookup(7) after Slot fill = %+v, %v", r, ok)
	}
	// Slot reuse across generations keeps the array.
	tab.Reset(&a)
	if tab.Len() != 0 {
		t.Fatalf("Len after Reset = %d", tab.Len())
	}
	again := tab.Slot(4)
	if &slot[0] != &again[0] {
		t.Fatal("Slot did not reuse the retained array within the generation")
	}
	if again[0].StageID != 0 {
		t.Fatal("Slot returned unzeroed entries")
	}
}

func TestParallelForCoversRangeDisjointly(t *testing.T) {
	const n = 10_000
	marks := make([]int32, n)
	workers := ParallelFor(n, runtime.GOMAXPROCS(0), 8, func(start, end int) {
		for i := start; i < end; i++ {
			atomic.AddInt32(&marks[i], 1)
		}
	})
	if workers < 1 {
		t.Fatalf("workers = %d", workers)
	}
	for i, m := range marks {
		if m != 1 {
			t.Fatalf("index %d visited %d times", i, m)
		}
	}
}

func TestParallelForMultiWorker(t *testing.T) {
	// Force real parallelism even on a single-CPU runner so the sharded
	// branch executes (and races, if any, surface under -race).
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)

	const n = 4096
	out := make([]uint64, n)
	workers := ParallelFor(n, runtime.GOMAXPROCS(0), 8, func(start, end int) {
		for i := start; i < end; i++ {
			out[i] = uint64(i) * 3
		}
	})
	if workers < 2 {
		t.Fatalf("workers = %d, want >= 2 with GOMAXPROCS=4", workers)
	}
	for i, v := range out {
		if v != uint64(i)*3 {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
}

func TestParallelForSmallInputStaysSerial(t *testing.T) {
	if w := ParallelFor(10, 4, 100, func(start, end int) {
		if start != 0 || end != 10 {
			t.Fatalf("serial range = [%d,%d)", start, end)
		}
	}); w != 1 {
		t.Fatalf("workers = %d, want 1 for sub-threshold input", w)
	}
	if w := ParallelFor(0, 4, 1, func(int, int) { t.Fatal("fn called for n=0") }); w != 0 {
		t.Fatalf("workers = %d, want 0 for empty input", w)
	}
}

func BenchmarkSlabTake(b *testing.B) {
	var a Arena
	var s Slab[wire.StageReport]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a.Begin()
		buf := s.Take(&a, 1024)
		buf[0].StageID = uint64(i)
	}
}

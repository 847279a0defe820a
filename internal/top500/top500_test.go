package top500

import (
	"strings"
	"testing"
)

func TestSystemsMatchPaperTableI(t *testing.T) {
	want := map[string]struct {
		rank  int
		nodes int
	}{
		"Frontier": {1, 9408},
		"Aurora":   {2, 10624},
		"Fugaku":   {4, 158976},
		"Summit":   {9, 4608},
		"Frontera": {33, 8368},
	}
	systems := Systems()
	if len(systems) != len(want) {
		t.Fatalf("systems = %d, want %d", len(systems), len(want))
	}
	for _, s := range systems {
		w, ok := want[s.Name]
		if !ok {
			t.Errorf("unexpected system %q", s.Name)
			continue
		}
		if s.Rank != w.rank || s.Nodes != w.nodes {
			t.Errorf("%s = rank %d nodes %d, want %d/%d", s.Name, s.Rank, s.Nodes, w.rank, w.nodes)
		}
	}
}

func TestMinAggregators(t *testing.T) {
	frontier := Systems()[0]
	// 9408 nodes at the paper's 2,500-connection limit need 4 aggregators.
	if got := MinAggregators(frontier, 2500); got != 4 {
		t.Errorf("Frontier MinAggregators = %d, want 4", got)
	}
	aurora := Systems()[1]
	// 10,624 nodes need 5.
	if got := MinAggregators(aurora, 2500); got != 5 {
		t.Errorf("Aurora MinAggregators = %d, want 5", got)
	}
	if got := MinAggregators(frontier, 0); got != 0 {
		t.Errorf("MinAggregators with no limit = %d", got)
	}
}

func TestFitsFlat(t *testing.T) {
	for _, s := range Systems() {
		if FitsFlat(s, 2500) {
			t.Errorf("%s (%d nodes) reported as flat-manageable at 2500 conns", s.Name, s.Nodes)
		}
		if !FitsFlat(s, -1) {
			t.Errorf("%s not flat-manageable with limit disabled", s.Name)
		}
	}
	small := System{Name: "mini", Nodes: 100}
	if !FitsFlat(small, 2500) {
		t.Error("100-node system not flat-manageable")
	}
}

func TestTableRendering(t *testing.T) {
	out := Table()
	for _, name := range []string{"Frontier", "Aurora", "Fugaku", "Summit", "Frontera", "Rank", "158976"} {
		if !strings.Contains(out, name) {
			t.Errorf("table missing %q:\n%s", name, out)
		}
	}
}

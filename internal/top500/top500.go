// Package top500 carries the supercomputer dataset behind the paper's
// Table I — the systems whose node counts motivate the scalability study —
// and helpers to reason about what control-plane design each would need.
package top500

import (
	"fmt"
	"strings"
)

// System is one supercomputer's Table I row.
type System struct {
	// Name is the system's name.
	Name string
	// Rank is the June 2024 Top500 rank.
	Rank int
	// RmaxPFlops is the LINPACK Rmax in PFlop/s.
	RmaxPFlops float64
	// Nodes is the number of compute nodes.
	Nodes int
	// Year is the installation year.
	Year int
}

// Systems returns the paper's Table I dataset (June 2024 Top500 list).
func Systems() []System {
	return []System{
		{Name: "Frontier", Rank: 1, RmaxPFlops: 1206, Nodes: 9408, Year: 2021},
		{Name: "Aurora", Rank: 2, RmaxPFlops: 1012, Nodes: 10624, Year: 2023},
		{Name: "Fugaku", Rank: 4, RmaxPFlops: 442, Nodes: 158976, Year: 2020},
		{Name: "Summit", Rank: 9, RmaxPFlops: 148.6, Nodes: 4608, Year: 2018},
		{Name: "Frontera", Rank: 33, RmaxPFlops: 23.52, Nodes: 8368, Year: 2019},
	}
}

// MinAggregators returns the minimum number of aggregator controllers a
// hierarchical control plane needs for the system, given a per-controller
// connection limit (the paper's §IV-B sizing rule: ceil(nodes/limit)).
func MinAggregators(sys System, connLimit int) int {
	if connLimit <= 0 {
		return 0
	}
	return (sys.Nodes + connLimit - 1) / connLimit
}

// FitsFlat reports whether a single flat controller can manage the system
// under the given connection limit.
func FitsFlat(sys System, connLimit int) bool {
	return connLimit < 0 || sys.Nodes <= connLimit
}

// Table renders the dataset in the paper's Table I layout.
func Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %5s %15s %16s %6s\n", "System", "Rank", "Rmax (PFlop/s)", "Number of nodes", "Year")
	for _, s := range Systems() {
		fmt.Fprintf(&b, "%-10s %5d %15.6g %16d %6d\n", s.Name, s.Rank, s.RmaxPFlops, s.Nodes, s.Year)
	}
	return b.String()
}

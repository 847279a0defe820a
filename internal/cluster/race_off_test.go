//go:build !race

package cluster

// raceEnabled reports whether the race detector is active.
const raceEnabled = false

//go:build !race

package stage

// raceEnabled reports whether the race detector is active.
const raceEnabled = false

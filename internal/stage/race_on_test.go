//go:build race

package stage

// raceEnabled reports that the race detector is active. It makes sync.Pool
// drop a share of what is put back at random, so an allocation count over a
// pooled path is not deterministic under it.
const raceEnabled = true

//go:build race

package cluster

// raceEnabled reports that the race detector is active. It instruments
// every memory access and makes sync.Pool drop a share of what is put back,
// so allocation readings taken under it measure the detector.
const raceEnabled = true

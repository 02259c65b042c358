//go:build !race

package soap

// raceEnabled reports whether the race detector is active; allocation
// pins that rest on sync.Pool skip under it.
const raceEnabled = false

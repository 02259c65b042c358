//go:build !race

package core

// raceEnabled reports whether the race detector is active; the allocation
// tests skip under it.
const raceEnabled = false

//go:build !race

package regex

// raceEnabled reports whether the race detector is active; time bounds
// are not held under it.
const raceEnabled = false

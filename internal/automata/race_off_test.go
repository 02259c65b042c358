//go:build !race

package automata

// raceEnabled reports whether the race detector is active; allocation
// budgets are not held under it.
const raceEnabled = false

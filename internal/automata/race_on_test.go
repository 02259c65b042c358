//go:build race

package automata

const raceEnabled = true

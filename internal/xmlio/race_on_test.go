//go:build race

package xmlio

const raceEnabled = true

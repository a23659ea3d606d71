//go:build race

package classical

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = true

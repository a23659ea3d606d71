//go:build !race

package hybrid

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = false

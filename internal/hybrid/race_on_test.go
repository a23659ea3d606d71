//go:build race

package hybrid

// raceEnabled reports whether the race detector is compiled in. Its
// instrumentation slows the DP sweep several-fold, so deadlines that admit
// an exact 20-relation plan in a plain build need not admit it under race.
const raceEnabled = true

//go:build race

package safeflow_test

// raceEnabled reports whether the race detector is on; timing gates
// skip under it, since it slows every path unevenly.
const raceEnabled = true

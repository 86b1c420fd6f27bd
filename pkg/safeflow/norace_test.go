//go:build !race

package safeflow_test

const raceEnabled = false

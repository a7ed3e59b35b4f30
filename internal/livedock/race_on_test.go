//go:build race

package livedock

// raceEnabled reports that the race detector is on. Under it sync.Pool
// drops entries at random, so fmt's allocation count is not a constant
// and exact object-count comparisons are skipped.
const raceEnabled = true

//go:build race

package dlmodel

// raceEnabled reports that the race detector is on. Its instrumentation
// allocates, so allocation guards are skipped under it.
const raceEnabled = true

//go:build race

package metrics_test

// raceEnabled reports that the race detector is on (~10× slower runs):
// the scenario cross-check trims to one seed and one period, since it
// exercises no concurrency.
const raceEnabled = true

//go:build race

package experiment

// raceEnabled reports that the race detector is on (~10× slower runs):
// exhaustive output-pinning tests trim their matrix, since they exercise
// no concurrency the lighter legs do not.
const raceEnabled = true

//go:build !race

package metrics_test

const raceEnabled = false

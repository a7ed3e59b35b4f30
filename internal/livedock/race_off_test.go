//go:build !race

package livedock

const raceEnabled = false

//go:build !race

package dlmodel

const raceEnabled = false

package experiment

import (
	"fmt"
	"reflect"
	"testing"
)

// costCounterPins pins every summary cell's deterministic cost counters,
// keyed "scenario/seed": {events the engine executed, folds the workers'
// daemons made, Algorithm 1 runs, limit updates}. A fold happens only
// where some rate changes and the summary collector schedules no event,
// so all four move only with a change to what the simulation does or
// schedules; such a change updates the pins and says why.
var costCounterPins = map[string][4]int{
	"bursty/1":            {342, 145, 163, 1170},
	"bursty/2":            {163, 65, 81, 210},
	"chaos-day/1":         {676, 302, 365, 88},
	"chaos-day/2":         {679, 306, 374, 76},
	"chaos-day-scratch/1": {408, 137, 238, 126},
	"chaos-day-scratch/2": {480, 156, 290, 177},
	"cluster-scale/1":     {49294, 16815, 28205, 77665},
	"cluster-scale/2":     {51894, 17034, 30501, 79512},
	"diurnal/1":           {250, 102, 128, 161},
	"diurnal/2":           {276, 107, 147, 162},
	"fixed/1":             {30, 11, 15, 13},
	"fixed/2":             {30, 11, 15, 13},
	"flashcrowd/1":        {193, 41, 145, 98},
	"flashcrowd/2":        {184, 66, 106, 121},
	"hotspot/1":           {305, 83, 202, 437},
	"hotspot/2":           {235, 61, 156, 252},
	"hotspot-rebalance/1": {289, 100, 123, 252},
	"hotspot-rebalance/2": {219, 77, 97, 123},
	"poisson/1":           {160, 69, 77, 550},
	"poisson/2":           {107, 44, 49, 244},
	"production-day/1":    {784, 289, 354, 428},
	"production-day/2":    {1003, 354, 416, 849},
	"rolling-drain/1":     {167, 56, 88, 145},
	"rolling-drain/2":     {126, 43, 72, 53},
	"uniform5/1":          {61, 26, 30, 64},
	"uniform5/2":          {60, 27, 28, 70},
}

// TestCostCountersPinned reads the matrix's summary cells.
func TestCostCountersPinned(t *testing.T) {
	readPinTable(t, "costCounterPins", costCounterPins, func(t *testing.T, sc string, seed int64) map[string][4]int {
		c := matrixCell(t, sc, seed, summaryWatch)
		return map[string][4]int{fmt.Sprintf("%s/%d", sc, seed): {c.Events, c.Folds, c.AlgorithmRuns, c.LimitUpdates}}
	})
}

// Spec.SimShards is vestigial: setting it must change nothing a run
// reports, and Result.ShardProfile stays nil (matrixCell checks that on
// every cell). The polled watch sets SimShards 4 and its poller only
// reads (a cell's events leave out its polls), so its Result must be the
// summary cell's.
func TestSimShardsChangesNothing(t *testing.T) {
	t.Parallel() // after the sequential tests: on a full pass its cells have run
	a := matrixCell(t, "cluster-scale", 1, summaryWatch)
	b := matrixCell(t, "cluster-scale", 1, polledWatch)
	if !reflect.DeepEqual(*a.Result, *b.Result) {
		t.Errorf("SimShards 0 and 4: makespan %v/%v, events %d/%d, folds %d/%d, algorithm runs %d/%d (or job records or other counts)",
			a.Makespan, b.Makespan, a.Events, b.Events, a.Folds, b.Folds, a.AlgorithmRuns, b.AlgorithmRuns)
	}
}

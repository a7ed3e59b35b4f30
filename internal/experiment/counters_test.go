package experiment

import "testing"

// TestCostCountersPinned pins the deterministic cost counters a run
// reports: the events the engine executed and the folds the workers'
// daemons made. A fold happens only where some rate changes, and the
// summary collector schedules no event, so both move only with a change
// to what the simulation does or schedules.
func TestCostCountersPinned(t *testing.T) {
	for _, c := range []struct {
		scenario      string
		events, folds int
	}{
		{"fixed", 30, 11},
		{"cluster-scale", 49294, 16815},
	} {
		sc, ok := ScenarioByName(c.scenario)
		if !ok {
			t.Fatalf("scenario %q not registered", c.scenario)
		}
		res, err := RunE(sc.Spec(1))
		if err != nil {
			t.Fatal(err)
		}
		if res.Events != c.events || res.Folds != c.folds {
			t.Errorf("%s seed 1: %d events, %d folds; want %d, %d",
				c.scenario, res.Events, res.Folds, c.events, c.folds)
		}
	}
}

package experiment

import (
	"reflect"
	"testing"
)

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

// Spec.SimShards is vestigial: setting it must change nothing a run
// reports, and Result.ShardProfile stays nil.
func TestSimShardsChangesNothing(t *testing.T) {
	sc, ok := ScenarioByName("cluster-scale")
	if !ok {
		t.Fatal("cluster-scale scenario missing")
	}
	run := func(shards int) *Result {
		spec := sc.Spec(1)
		spec.SimShards = shards
		res, err := RunE(spec)
		if err != nil {
			t.Fatal(err)
		}
		if res.ShardProfile != nil {
			t.Fatalf("SimShards %d: ShardProfile = %+v, want nil", shards, res.ShardProfile)
		}
		return res
	}
	a, b := run(0), run(4)
	if !reflect.DeepEqual(a.Jobs, b.Jobs) {
		t.Error("job records differ between SimShards 0 and 4")
	}
	type counters struct {
		makespan                                       float64
		submitted, events, folds, runs, updates, moved int
		requeued, abandoned                            int
		completed                                      bool
	}
	count := func(r *Result) counters {
		return counters{r.Makespan, r.Submitted, r.Events, r.Folds, r.AlgorithmRuns, r.LimitUpdates,
			r.Migrated, r.Requeued, r.Abandoned, r.Completed}
	}
	if ca, cb := count(a), count(b); ca != cb {
		t.Errorf("SimShards 0: %+v; SimShards 4: %+v", ca, cb)
	}
}

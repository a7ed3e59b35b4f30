package experiment

import (
	"bytes"
	"context"
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/workload"
)

// The built-in registry carries the four new arrival processes plus the
// paper's workloads, sorted for deterministic listings.
func TestBuiltinScenarioRegistry(t *testing.T) {
	scens := Scenarios()
	var names []string
	for _, s := range scens {
		names = append(names, s.Name)
	}
	if !sort.StringsAreSorted(names) {
		t.Fatalf("registry listing not sorted: %v", names)
	}
	for _, want := range []string{"poisson", "bursty", "diurnal", "flashcrowd", "fixed", "uniform5"} {
		if _, ok := ScenarioByName(want); !ok {
			t.Fatalf("built-in scenario %q missing (have %v)", want, names)
		}
	}
	if _, ok := ScenarioByName("no-such-scenario"); ok {
		t.Fatal("lookup of unknown scenario succeeded")
	}
}

// RegisterScenario rejects invalid definitions and duplicates but accepts
// (and then lists) a valid custom scenario.
func TestRegisterScenario(t *testing.T) {
	if err := RegisterScenario(Scenario{Name: "x"}); err == nil {
		t.Fatal("scenario without workload accepted")
	}
	if err := RegisterScenario(Scenario{StreamWorkload: sliceWorkload(workload.RandomFive)}); err == nil {
		t.Fatal("scenario without name accepted")
	}
	if err := RegisterScenario(Scenario{Name: "poisson", StreamWorkload: sliceWorkload(workload.RandomFive)}); err == nil {
		t.Fatal("duplicate registration accepted")
	}
	custom := Scenario{
		Name:           "test-custom",
		Description:    "registered by TestRegisterScenario",
		StreamWorkload: sliceWorkload(func(seed int64) []workload.Submission { return workload.RandomN(3, seed) }),
	}
	if err := RegisterScenario(custom); err != nil {
		t.Fatal(err)
	}
	got, ok := ScenarioByName("test-custom")
	if !ok || got.Description != custom.Description {
		t.Fatalf("custom scenario lookup = %+v, %v", got, ok)
	}
}

// Scenario workloads are pure functions of the seed.
func TestScenarioWorkloadsSeedDeterministic(t *testing.T) {
	for _, s := range Scenarios() {
		if strings.HasPrefix(s.Name, "test-") {
			continue
		}
		a, errA := workload.Collect(s.StreamWorkload(3))
		b, errB := workload.Collect(s.StreamWorkload(3))
		if errA != nil || errB != nil {
			t.Fatalf("scenario %q stream: %v / %v", s.Name, errA, errB)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("scenario %q workload is not deterministic for one seed", s.Name)
		}
		if len(a) == 0 {
			t.Fatalf("scenario %q generated an empty schedule", s.Name)
		}
	}
}

// testScenarios is a small fast subset for the sweep-integration tests.
func testScenarios(t *testing.T) []Scenario {
	t.Helper()
	var out []Scenario
	for _, name := range []string{"fixed", "poisson", "flashcrowd"} {
		s, ok := ScenarioByName(name)
		if !ok {
			t.Fatalf("missing built-in %q", name)
		}
		out = append(out, s)
	}
	return out
}

// The rendered scenario report is byte-identical at pool widths 1 and 8 —
// the acceptance criterion that scenario results shard cleanly across the
// parallel sweep pool.
func TestScenarioReportDeterministicAcrossParallelism(t *testing.T) {
	scens := testScenarios(t)
	seeds := ScenarioSeeds(3)
	render := func(par int) string {
		outs, err := RunScenarios(context.Background(), scens, seeds, SweepOptions{Parallelism: par}, nil)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		ReportScenario(&buf, outs)
		return buf.String()
	}
	serial := render(1)
	parallel := render(8)
	if serial != parallel {
		t.Fatalf("scenario report differs between -parallel 1 and 8:\n%s\nvs\n%s", serial, parallel)
	}
	for _, s := range scens {
		if !strings.Contains(serial, s.Name) {
			t.Fatalf("report missing scenario %q:\n%s", s.Name, serial)
		}
	}
}

// RunScenarios regroups the flat sweep back into per-scenario outcomes in
// (scenario, seed) order, with the spec names carrying the seed labels.
func TestRunScenariosGrouping(t *testing.T) {
	scens := testScenarios(t)
	seeds := []int64{5, 9}
	outs, err := RunScenarios(context.Background(), scens, seeds, SweepOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != len(scens) {
		t.Fatalf("%d outcomes for %d scenarios", len(outs), len(scens))
	}
	for i, o := range outs {
		if o.Scenario.Name != scens[i].Name {
			t.Fatalf("outcome %d is %q, want %q", i, o.Scenario.Name, scens[i].Name)
		}
		if len(o.Reports) != len(seeds) {
			t.Fatalf("scenario %q has %d reports for %d seeds", o.Scenario.Name, len(o.Reports), len(seeds))
		}
		for j, rep := range o.Reports {
			if rep.Err != nil {
				t.Fatalf("scenario %q seed %d failed: %v", o.Scenario.Name, seeds[j], rep.Err)
			}
			if !strings.Contains(rep.Name, o.Scenario.Name) {
				t.Fatalf("report %q does not carry scenario name %q", rep.Name, o.Scenario.Name)
			}
		}
		if len(o.Results()) != len(seeds) || o.Failed() != 0 {
			t.Fatalf("scenario %q: results=%d failed=%d", o.Scenario.Name, len(o.Results()), o.Failed())
		}
	}
}

// RegisterScenario rejects every drain that RunE would reject for each
// seed of the scenario: the two share one validator.
func TestRegisterScenarioRejectsInvalidDrains(t *testing.T) {
	for name, d := range map[string]Drain{
		"NaN at":             {Worker: 1, At: math.NaN()},
		"negative at":        {Worker: 1, At: -5},
		"uncordon before at": {Worker: 1, At: 50, UncordonAt: 10},
		"uncordon at at":     {Worker: 1, At: 50, UncordonAt: 50},
	} {
		t.Run(name, func(t *testing.T) {
			s := Scenario{
				Name:           "bad drain: " + name,
				StreamWorkload: sliceWorkload(workload.RandomFive),
				Workers:        2,
				Drains:         []Drain{d},
			}
			if _, err := RunE(s.Spec(1)); err == nil {
				t.Fatalf("RunE accepted drain %+v", d)
			}
			if err := RegisterScenario(s); err == nil {
				t.Fatalf("RegisterScenario accepted drain %+v", d)
			}
		})
	}
}

// Multi-worker scenarios actually spread jobs: the diurnal scenario's 4
// workers all host something under any seed that generates enough jobs.
func TestMultiWorkerScenarioUsesCluster(t *testing.T) {
	s, ok := ScenarioByName("diurnal")
	if !ok {
		t.Fatal("diurnal scenario missing")
	}
	res, err := RunE(s.Spec(1))
	if err != nil {
		t.Fatal(err)
	}
	workers := map[string]bool{}
	for _, j := range res.Jobs {
		workers[j.Worker] = true
	}
	if len(workers) < 2 {
		t.Fatalf("diurnal scenario used %d worker(s), want the load spread across several", len(workers))
	}
}

// RunScenarios validates its inputs.
func TestRunScenariosValidation(t *testing.T) {
	scens := testScenarios(t)
	if _, err := RunScenarios(context.Background(), nil, ScenarioSeeds(1), SweepOptions{}, nil); err == nil {
		t.Fatal("no scenarios accepted")
	}
	if _, err := RunScenarios(context.Background(), scens, nil, SweepOptions{}, nil); err == nil {
		t.Fatal("no seeds accepted")
	}
	bad := []Scenario{{Name: "broken"}}
	if _, err := RunScenarios(context.Background(), bad, ScenarioSeeds(1), SweepOptions{}, nil); err == nil {
		t.Fatal("invalid scenario accepted")
	}
	for name, s := range map[string]Scenario{
		"negative alpha":   {Name: "x", StreamWorkload: sliceWorkload(workload.RandomFive), Alpha: -1},
		"alpha too big":    {Name: "x", StreamWorkload: sliceWorkload(workload.RandomFive), Alpha: 1},
		"negative itval":   {Name: "x", StreamWorkload: sliceWorkload(workload.RandomFive), Itval: -5},
		"negative horizon": {Name: "x", StreamWorkload: sliceWorkload(workload.RandomFive), Horizon: -10},
		"negative cap":     {Name: "x", StreamWorkload: sliceWorkload(workload.RandomFive), MaxContainersPerWorker: -1},
	} {
		if err := RegisterScenario(s); err == nil {
			t.Fatalf("%s accepted by RegisterScenario", name)
		}
	}
}

// A cancelled context aborts a scenario sweep.
func TestRunScenariosCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunScenarios(ctx, testScenarios(t), ScenarioSeeds(2), SweepOptions{Parallelism: 2}, nil)
	if err == nil {
		t.Fatal("cancelled scenario sweep reported success")
	}
}

// An overloaded scenario whose horizon strands submissions in the
// admission queue reports the full submitted count and a loud status —
// dropped work must not be invisible in the stress report.
func TestReportScenarioCountsQueuedJobs(t *testing.T) {
	overloaded := Scenario{
		Name: "test-overloaded",
		StreamWorkload: sliceWorkload(func(seed int64) []workload.Submission {
			subs := workload.RandomN(8, seed)
			for i := range subs {
				subs[i].At = float64(i) // all eight arrive well inside the horizon
			}
			return subs
		}),
		MaxContainersPerWorker: 1,
		Horizon:                50, // far too short for 8 serialized jobs
	}
	outs, err := RunScenarios(context.Background(), []Scenario{overloaded},
		[]int64{1}, SweepOptions{Parallelism: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	res := outs[0].Results()[0]
	if res.Submitted != 8 {
		t.Fatalf("Submitted = %d, want 8", res.Submitted)
	}
	if len(res.Jobs) >= res.Submitted {
		t.Fatalf("test premise broken: all %d jobs were placed within the horizon", res.Submitted)
	}
	if res.Completed {
		t.Fatal("run with queued jobs reported Completed")
	}
	var buf bytes.Buffer
	ReportScenario(&buf, outs)
	if !strings.Contains(buf.String(), "8.0") || !strings.Contains(buf.String(), "jobs dropped") {
		t.Fatalf("report hides the dropped jobs:\n%s", buf.String())
	}
}

// ReportScenario renders failed scenarios without panicking.
func TestReportScenarioFailures(t *testing.T) {
	outs := []ScenarioOutcome{{
		Scenario: Scenario{Name: "doomed"},
		Seeds:    []int64{1},
		Reports:  []RunReport{{Index: 0, Name: "doomed [seed=1]", Err: context.Canceled}},
	}}
	var buf bytes.Buffer
	ReportScenario(&buf, outs)
	if !strings.Contains(buf.String(), "FAILED 1/1") {
		t.Fatalf("failure row missing:\n%s", buf.String())
	}
}

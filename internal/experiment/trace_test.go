package experiment

import (
	"context"
	"strings"
	"testing"

	"repro/internal/telemetry"
	"repro/internal/workload"
)

// phasesOf flattens a job's span phases in recorded order.
func phasesOf(spans []telemetry.Span, job string) []telemetry.Phase {
	var out []telemetry.Phase
	for _, s := range spans {
		if s.Job == job {
			out = append(out, s.Phase)
		}
	}
	return out
}

// TestRunnerTracesLifecycle drives a plain run with a tracer attached and
// requires every job's span log to read submit → admit → place → run →
// exit, each stamped with a non-decreasing sim clock.
func TestRunnerTracesLifecycle(t *testing.T) {
	tr := telemetry.NewTracer(0)
	res := Run(Spec{
		Name:        "traced",
		NewPolicy:   FlowConPolicy(0.05, 20),
		Submissions: workload.RandomFive(7),
		Workers:     2,
		Tracer:      tr,
	})
	if !res.Completed {
		t.Fatal("traced run did not complete")
	}
	if res.Tracer != tr {
		t.Fatal("Result.Tracer does not echo Spec.Tracer")
	}
	spans := tr.Spans(res.Name)
	if tr.Dropped() != 0 {
		t.Fatalf("ring dropped %d spans at default capacity", tr.Dropped())
	}
	want := []telemetry.Phase{
		telemetry.PhaseSubmit, telemetry.PhaseAdmit, telemetry.PhasePlace,
		telemetry.PhaseRun, telemetry.PhaseExit,
	}
	for _, j := range res.Jobs {
		got := phasesOf(spans, j.Name)
		if len(got) != len(want) {
			t.Fatalf("job %s spans = %v, want %v", j.Name, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("job %s spans = %v, want %v", j.Name, got, want)
			}
		}
	}
	last := map[string]float64{}
	for _, s := range spans {
		if s.SimSec < last[s.Job] {
			t.Fatalf("job %s sim clock went backwards at phase %s: %g < %g",
				s.Job, s.Phase, s.SimSec, last[s.Job])
		}
		last[s.Job] = s.SimSec
		if s.Run != res.Name {
			t.Fatalf("span run label %q, want %q", s.Run, res.Name)
		}
	}
}

// TestRunnerTracesMigration pins the migrate spans: a drain emits a
// freeze (and its thaw) between run and exit.
func TestRunnerTracesMigration(t *testing.T) {
	tr := telemetry.NewTracer(0)
	res := Run(Spec{
		Name:        "traced-drain",
		NewPolicy:   NAPolicy(20),
		Submissions: workload.FixedSchedule()[:2],
		Workers:     2,
		Drains:      []Drain{{Worker: 0, At: 5, UncordonAt: 500}},
		Horizon:     5000,
		Tracer:      tr,
	})
	if !res.Completed || res.Migrated == 0 {
		t.Fatalf("drain run: completed=%v migrated=%d", res.Completed, res.Migrated)
	}
	spans := tr.Spans(res.Name)
	freezes, thaws := 0, 0
	for _, s := range spans {
		if s.Phase != telemetry.PhaseMigrate {
			continue
		}
		switch {
		case strings.HasPrefix(s.Note, "freeze"):
			freezes++
		case strings.HasPrefix(s.Note, "thaw"):
			thaws++
		}
	}
	if freezes != res.Migrated || thaws != res.Migrated {
		t.Fatalf("migrate spans: %d freezes / %d thaws, want %d each", freezes, thaws, res.Migrated)
	}
}

// TestRunnerTracesFailure pins the fail spans: jobs lost to a worker
// crash get a fail span and then a second admit/place/run sequence.
func TestRunnerTracesFailure(t *testing.T) {
	tr := telemetry.NewTracer(0)
	res := Run(Spec{
		Name:        "traced-fail",
		NewPolicy:   FlowConPolicy(0.05, 20),
		Submissions: workload.RandomFive(7),
		Workers:     2,
		Faults:      crashAt(0, 120),
		Tracer:      tr,
	})
	if !res.Completed || res.Requeued == 0 {
		t.Fatalf("failure run: completed=%v requeued=%d", res.Completed, res.Requeued)
	}
	fails := 0
	for _, s := range tr.Spans(res.Name) {
		if s.Phase == telemetry.PhaseFail {
			fails++
		}
	}
	if fails != res.Requeued {
		t.Fatalf("fail spans = %d, requeued = %d", fails, res.Requeued)
	}
}

// TestTracerIsPureObserver is the tentpole invariant: the same spec with
// and without a tracer must produce identical simulation results.
func TestTracerIsPureObserver(t *testing.T) {
	spec := func(tr *telemetry.Tracer) Spec {
		return Spec{
			Name:        "observer",
			NewPolicy:   FlowConPolicy(0.05, 20),
			Submissions: workload.RandomFive(3),
			Workers:     3,
			Faults:      crashAt(1, 100),
			Tracer:      tr,
		}
	}
	plain := Run(spec(nil))
	traced := Run(spec(telemetry.NewTracer(0)))
	if plain.Makespan != traced.Makespan || plain.Submitted != traced.Submitted ||
		plain.Requeued != traced.Requeued || len(plain.Jobs) != len(traced.Jobs) {
		t.Fatalf("tracer changed the simulation: %+v vs %+v", plain, traced)
	}
	for i := range plain.Jobs {
		if plain.Jobs[i].Name != traced.Jobs[i].Name ||
			plain.Jobs[i].FinishedAt != traced.Jobs[i].FinishedAt {
			t.Fatalf("job %d diverged: %+v vs %+v", i, plain.Jobs[i], traced.Jobs[i])
		}
	}
}

// TestRunScenariosEditsEachSpec pins the sweep plumbing: the edit runs
// once per expanded spec, so a tracer it installs is one fresh ring per
// run (sweeps run specs concurrently and must not share a ring).
func TestRunScenariosEditsEachSpec(t *testing.T) {
	s := Scenario{
		Name:           "traced-scn",
		StreamWorkload: sliceWorkload(workload.RandomFive),
		Workers:        2,
	}
	outs, err := RunScenarios(context.Background(), []Scenario{s}, ScenarioSeeds(2), SweepOptions{},
		func(spec *Spec) { spec.Tracer = telemetry.NewTracer(128) })
	if err != nil {
		t.Fatal(err)
	}
	a, b := outs[0].Reports[0].Result, outs[0].Reports[1].Result
	if a == nil || b == nil || a.Tracer == nil || b.Tracer == nil {
		t.Fatal("edit did not reach every spec")
	}
	if a.Tracer == b.Tracer {
		t.Fatal("specs share one tracer ring — sweeps run specs concurrently")
	}
	if a.Tracer.Len() == 0 {
		t.Fatal("installed tracer recorded nothing")
	}
}

// Every span is recorded from inside the one event loop, so a run's span
// log is in non-decreasing simulated time across jobs, not only within
// each job.
func TestSpansInSimTimeOrder(t *testing.T) {
	for _, name := range []string{"poisson", "chaos-day"} {
		sc, ok := ScenarioByName(name)
		if !ok {
			t.Fatalf("scenario %q not registered", name)
		}
		spec := sc.Spec(1)
		spec.Tracer = telemetry.NewTracer(0)
		res, err := RunE(spec)
		if err != nil {
			t.Fatal(err)
		}
		if spec.Tracer.Dropped() != 0 {
			t.Fatalf("%s: ring dropped %d spans", name, spec.Tracer.Dropped())
		}
		spans := spec.Tracer.Spans(res.Name)
		if len(spans) == 0 {
			t.Fatalf("%s: no spans recorded", name)
		}
		for i := 1; i < len(spans); i++ {
			if spans[i].SimSec < spans[i-1].SimSec {
				t.Fatalf("%s: span %d (%s %s at %g) precedes span %d (%s %s at %g)", name,
					i, spans[i].Job, spans[i].Phase, spans[i].SimSec,
					i-1, spans[i-1].Job, spans[i-1].Phase, spans[i-1].SimSec)
			}
		}
	}
}

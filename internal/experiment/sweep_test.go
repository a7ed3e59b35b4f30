package experiment

import (
	"context"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/dlmodel"
	"repro/internal/flowcon"
	"repro/internal/migrate"
	"repro/internal/sched"
	"repro/internal/workload"
)

// fourWaySpecs is a small real sweep: the fixed schedule under three
// FlowCon settings and NA.
func fourWaySpecs() []Spec {
	return SettingSpecs("4way", workload.FixedSchedule(), []Setting{
		{Alpha: 0.05, Itval: 20},
		{Alpha: 0.05, Itval: 40},
		{Alpha: 0.10, Itval: 20},
		{NA: true},
	})
}

// TestSweepMatchesSerial: a parallel sweep returns, slot for slot, the
// same results a serial loop over RunE produces — the determinism
// contract behind byte-identical figures.
func TestSweepMatchesSerial(t *testing.T) {
	specs := fourWaySpecs()
	serial := make([]*Result, len(specs))
	for i, s := range specs {
		res, err := RunE(s)
		if err != nil {
			t.Fatalf("serial run %d: %v", i, err)
		}
		serial[i] = res
	}
	sr, err := Sweep(context.Background(), specs, SweepOptions{Parallelism: 4})
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	if sr.Err() != nil {
		t.Fatalf("sweep runs failed: %v", sr.Err())
	}
	if len(sr.Runs) != len(specs) {
		t.Fatalf("got %d runs, want %d", len(sr.Runs), len(specs))
	}
	for i, rep := range sr.Runs {
		want, got := serial[i], rep.Result
		if rep.Index != i || rep.Name != specs[i].Name {
			t.Fatalf("slot %d mislabelled: %+v", i, rep)
		}
		if got.Makespan != want.Makespan {
			t.Errorf("run %d makespan %v != serial %v", i, got.Makespan, want.Makespan)
		}
		if got.AlgorithmRuns != want.AlgorithmRuns || got.LimitUpdates != want.LimitUpdates {
			t.Errorf("run %d overhead %d/%d != serial %d/%d",
				i, got.AlgorithmRuns, got.LimitUpdates, want.AlgorithmRuns, want.LimitUpdates)
		}
		gt, wt := got.CompletionTimes(), want.CompletionTimes()
		for name, v := range wt {
			if gt[name] != v {
				t.Errorf("run %d job %s: %v != serial %v", i, name, gt[name], v)
			}
		}
	}
}

// TestSweepRenderIdentical: the rendered sweep report is byte-identical
// at every pool width.
func TestSweepRenderIdentical(t *testing.T) {
	render := func(par int) string {
		SetDefaultParallelism(par)
		defer SetDefaultParallelism(0)
		var sb strings.Builder
		ReportSweep(&sb, Fig3())
		return sb.String()
	}
	serial := render(1)
	parallel := render(4)
	if serial != parallel {
		t.Fatalf("Fig3 output differs between -parallel 1 and 4:\n%s\n---\n%s", serial, parallel)
	}
}

// TestSweepPanicIsolation: one panicking run lands in its own slot's Err
// without sinking the other runs or the sweep.
func TestSweepPanicIsolation(t *testing.T) {
	specs := fourWaySpecs()
	specs[1].NewPolicy = func(flowcon.Tracer) sched.Policy {
		panic("policy constructor exploded")
	}
	sr, err := Sweep(context.Background(), specs, SweepOptions{Parallelism: 2})
	if err != nil {
		t.Fatalf("sweep returned %v; per-run failures must not fail the sweep", err)
	}
	failed := sr.Failed()
	if len(failed) != 1 || failed[0].Index != 1 {
		t.Fatalf("failed = %+v, want exactly run 1", failed)
	}
	if !strings.Contains(failed[0].Err.Error(), "policy constructor exploded") {
		t.Fatalf("panic message lost: %v", failed[0].Err)
	}
	if got := len(sr.Results()); got != 3 {
		t.Fatalf("%d healthy results, want 3", got)
	}
	if sr.Err() == nil || !strings.Contains(sr.Err().Error(), "run 1") {
		t.Fatalf("Err() = %v, want first failure", sr.Err())
	}
	// The report lists the failure on one line: the panic's stack stays
	// out of the table.
	var sb strings.Builder
	ReportSweepResult(&sb, sr)
	out := sb.String()
	if !strings.Contains(out, "FAILED") || !strings.Contains(out, "1 run(s) failed:") ||
		!strings.Contains(out, "policy constructor exploded") {
		t.Fatalf("report misses the failure:\n%s", out)
	}
	if strings.Contains(out, "goroutine ") {
		t.Fatalf("report carries the panic's stack:\n%s", out)
	}
}

// TestSweepInvalidSpec: spec validation arrives as an error (via RunE),
// not a panic.
func TestSweepInvalidSpec(t *testing.T) {
	specs := []Spec{{Name: "bad"}} // no policy, no submissions
	sr, err := Sweep(context.Background(), specs, SweepOptions{})
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	if sr.Runs[0].Err == nil || !strings.Contains(sr.Runs[0].Err.Error(), "without policy") {
		t.Fatalf("run err = %v", sr.Runs[0].Err)
	}
}

// TestSweepCancellation: a cancelled context skips unstarted specs and
// surfaces the context error.
func TestSweepCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sr, err := Sweep(ctx, fourWaySpecs(), SweepOptions{Parallelism: 2})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	for i, rep := range sr.Runs {
		if rep.Err != context.Canceled {
			t.Fatalf("run %d err = %v, want context.Canceled", i, rep.Err)
		}
	}
}

// TestSweepMidwayCancellation: cancelling while the first run executes
// (serial pool, so ordering is known) lets that run finish and stops the
// remaining specs.
func TestSweepMidwayCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	specs := fourWaySpecs()
	newPolicy := specs[0].NewPolicy
	specs[0].NewPolicy = func(tr flowcon.Tracer) sched.Policy {
		cancel()
		return newPolicy(tr)
	}
	sr, err := Sweep(ctx, specs, SweepOptions{Parallelism: 1})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if sr.Runs[0].Err != nil || sr.Runs[0].Result == nil {
		t.Fatalf("first run should have finished: %+v", sr.Runs[0])
	}
	for i := 1; i < len(sr.Runs); i++ {
		if sr.Runs[i].Err != context.Canceled {
			t.Fatalf("run %d err = %v, want context.Canceled", i, sr.Runs[i].Err)
		}
	}
}

// withProfile returns a copy of subs with the last job's profile mutated,
// so a lazy stream meets the bad profile mid-run.
func withProfile(subs []workload.Submission, mutate func(*dlmodel.Profile)) []workload.Submission {
	out := slices.Clone(subs)
	mutate(&out[len(out)-1].Profile)
	return out
}

func TestRunEValidation(t *testing.T) {
	subs := workload.FixedSchedule()
	for name, spec := range map[string]Spec{
		"no policy":      {Submissions: subs},
		"no submissions": {NewPolicy: NAPolicy(20)},
		"negative workers": {
			NewPolicy:   NAPolicy(20),
			Submissions: subs,
			Workers:     -1,
		},
		"bad failure index": {
			NewPolicy:   NAPolicy(20),
			Submissions: subs,
			Faults:      crashAt(3, 100),
		},
		"NaN sample period":           {NewPolicy: NAPolicy(20), Submissions: subs, SamplePeriod: math.NaN()},
		"infinite sample period":      {NewPolicy: NAPolicy(20), Submissions: subs, SamplePeriod: math.Inf(1)},
		"negative sample period":      {NewPolicy: NAPolicy(20), Submissions: subs, SamplePeriod: -1},
		"NaN horizon":                 {NewPolicy: NAPolicy(20), Submissions: subs, Horizon: math.NaN()},
		"infinite horizon":            {NewPolicy: NAPolicy(20), Submissions: subs, Horizon: math.Inf(1)},
		"negative horizon":            {NewPolicy: NAPolicy(20), Submissions: subs, Horizon: -1},
		"NaN contention":              {NewPolicy: NAPolicy(20), Submissions: subs, ContentionOverhead: math.NaN()},
		"infinite contention":         {NewPolicy: NAPolicy(20), Submissions: subs, ContentionOverhead: math.Inf(1)},
		"NaN memory":                  {NewPolicy: NAPolicy(20), Submissions: subs, MemoryBytesPerWorker: math.NaN()},
		"infinite memory":             {NewPolicy: NAPolicy(20), Submissions: subs, MemoryBytesPerWorker: math.Inf(1)},
		"NaN capacity":                {NewPolicy: NAPolicy(20), Submissions: subs, Capacity: math.NaN()},
		"negative capacity":           {NewPolicy: NAPolicy(20), Submissions: subs, Capacity: -1},
		"infinite capacity":           {NewPolicy: NAPolicy(20), Submissions: subs, Capacity: math.Inf(1)},
		"negative container cap":      {NewPolicy: NAPolicy(20), Submissions: subs, MaxContainersPerWorker: -1},
		"NaN job memory":              {NewPolicy: NAPolicy(20), Submissions: withProfile(subs, func(p *dlmodel.Profile) { p.MemoryBytes = math.NaN() })},
		"NaN job work":                {NewPolicy: NAPolicy(20), Submissions: withProfile(subs, func(p *dlmodel.Profile) { p.TotalWork = math.NaN() })},
		"negative rebalance interval": {NewPolicy: NAPolicy(20), Submissions: subs, Rebalance: &migrate.Config{Interval: -1}},
		"negative rebalance move cap": {NewPolicy: NAPolicy(20), Submissions: subs, Rebalance: &migrate.Config{MaxMovesPerScan: -1}},
		"NaN rebalance freeze": {
			NewPolicy:   NAPolicy(20),
			Submissions: subs,
			Rebalance:   &migrate.Config{Cost: cluster.MigrationCost{FreezeSec: math.NaN()}},
		},
		"NaN streamed job memory": {
			NewPolicy: NAPolicy(20),
			Arrivals:  workload.SliceStream(withProfile(subs, func(p *dlmodel.Profile) { p.MemoryBytes = math.NaN() })),
		},
	} {
		t.Run(name, func(t *testing.T) {
			if _, err := RunE(spec); err == nil {
				t.Error("invalid spec returned nil error")
			}
		})
	}
	// Run keeps the panicking wrapper for compatibility.
	defer func() {
		if recover() == nil {
			t.Error("Run did not panic on invalid spec")
		}
	}()
	Run(Spec{})
}

// TestGridSweepEndToEnd runs a small (α, itval) grid plus NA through a
// two-wide pool and checks the wall/work accounting and the rendered
// report.
func TestGridSweepEndToEnd(t *testing.T) {
	specs := SettingSpecs("e2e", workload.FixedSchedule(), []Setting{
		{Alpha: 0.05, Itval: 20},
		{Alpha: 0.05, Itval: 30},
		{NA: true},
	})
	sr, err := Sweep(context.Background(), specs, SweepOptions{Parallelism: 2})
	if err != nil || sr.Err() != nil {
		t.Fatalf("sweep: %v / %v", err, sr.Err())
	}
	if sr.Parallelism != 2 || sr.Work <= 0 || sr.Wall <= 0 {
		t.Fatalf("accounting: %+v", sr)
	}
	var sb strings.Builder
	ReportSweepResult(&sb, sr)
	out := sb.String()
	for _, want := range []string{"3 runs", "parallelism 2", "speedup"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
}

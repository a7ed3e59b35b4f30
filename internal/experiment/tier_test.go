package experiment

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"repro/internal/metrics"
)

// runScenarioTier runs one registered scenario across seeds at the given
// collection tier and renders its ReportScenario table.
func runScenarioTier(t *testing.T, name string, seeds []int64, tier metrics.Tier) (string, []ScenarioOutcome) {
	t.Helper()
	s, ok := ScenarioByName(name)
	if !ok {
		t.Fatalf("scenario %q not registered", name)
	}
	outs, err := RunScenarios(context.Background(), []Scenario{s}, seeds, SweepOptions{},
		func(spec *Spec) { spec.TraceLevel = tier })
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	ReportScenario(&buf, outs)
	return buf.String(), outs
}

// TestReportScenarioTierParity is the acceptance check that the summary
// tier loses nothing ReportScenario shows: the rendered table — every
// column including the GE@25/50/75% trajectory — must be byte-identical
// between tiers. (Completion times come from job records, and growth
// stays under the CompactSeries budget for every built-in scenario, so
// the parity is exact, well inside the documented sketch error.)
func TestReportScenarioTierParity(t *testing.T) {
	seeds := []int64{1, 2}
	for _, name := range []string{"poisson", "bursty", "hotspot-rebalance"} {
		dense, _ := runScenarioTier(t, name, seeds, metrics.TierDense)
		summary, _ := runScenarioTier(t, name, seeds, metrics.TierSummary)
		if dense != summary {
			t.Errorf("%s: ReportScenario diverged between tiers\ndense:\n%s\nsummary:\n%s",
				name, dense, summary)
		}
	}
}

// TestOutcomeIndependentOfObservation: watching a run never changes what
// it does. Every pinned run (chaos-day and hotspot-rebalance only under
// -short or -race) has a bit-identical Result — job records, makespan,
// folds, limit updates, Algorithm 1 runs — under every watch of the run
// matrix; only Events may differ, as dense samples are events. It holds
// because a daemon's reads are closed-form and change no state: put a
// fold back into a read and the fold count moves.
func TestOutcomeIndependentOfObservation(t *testing.T) {
	scenarios, seeds, trimmed := pinnedRuns()
	if trimmed {
		scenarios = []string{"chaos-day", "hotspot-rebalance"}
	}
	eachRun(t, scenarios, seeds, func(t *testing.T, sc string, seed int64) {
		outcome := func(w int) Result {
			r := *matrixCell(t, sc, seed, w).Result
			r.Events, r.TraceLevel = 0, 0
			return r
		}
		ref := outcome(summaryWatch)
		for w := range watches {
			if got := outcome(w); !reflect.DeepEqual(got, ref) {
				t.Errorf("%s changed the outcome against %s: makespan %v/%v, folds %d/%d, limit updates %d/%d, algorithm runs %d/%d (or job records, or other counts)",
					watches[w].name, watches[summaryWatch].name, got.Makespan, ref.Makespan, got.Folds, ref.Folds,
					got.LimitUpdates, ref.LimitUpdates, got.AlgorithmRuns, ref.AlgorithmRuns)
			}
		}
	})
}

// TestSummaryTierResultShape pins the summary tier's observable surface:
// no raw series, no CPU summary, a growth trajectory for GrowthAt, and a
// recorded trace level.
func TestSummaryTierResultShape(t *testing.T) {
	_, outs := runScenarioTier(t, "fixed", []int64{1}, metrics.TierSummary)
	res := outs[0].Results()[0]
	if res.TraceLevel != metrics.TierSummary {
		t.Fatalf("result trace level = %v", res.TraceLevel)
	}
	if len(res.Jobs) == 0 {
		t.Fatal("no jobs")
	}
	j := res.Jobs[0]
	if res.Collector.CPUSeries(j.Name) != nil {
		t.Fatal("summary tier retained a dense series")
	}
	if res.Collector.CPUSummary(j.Name) != nil {
		t.Fatal("summary tier answered a cpu summary")
	}
	if _, ok := res.Collector.GrowthAt(j.Name, res.Makespan); !ok {
		t.Fatal("summary tier kept no growth trajectory")
	}
}

// TestSummaryTierMemoryClusterScale is the acceptance criterion for the
// memory model: on the 256-worker cluster-scale scenario (seed 1) the
// summary cell's collector must retain at least 5× less memory than the
// dense-every-2-s one — O(jobs), not O(jobs × makespan) — and at most
// maxSummaryBytesPerJob per job.
func TestSummaryTierMemoryClusterScale(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster-scale memory comparison is expensive; run without -short")
	}
	// A job reads 1028 B on seed 1: the 128-B record, 56 B of index
	// entries and a compact growth trajectory (64 B plus 16 B per point
	// of capacity, ~49 points on average). With five 72-B summaries in
	// the record it read ≈1.4 KiB.
	const maxSummaryBytesPerJob = 1152
	summary := matrixCell(t, "cluster-scale", 1, summaryWatch)
	dense := matrixCell(t, "cluster-scale", 1, spansWatch)
	db, sb := dense.memory, summary.memory
	if db == 0 || sb == 0 {
		t.Fatalf("memory estimates: dense %d, summary %d", db, sb)
	}
	if db < 5*sb {
		t.Errorf("summary tier saves %.1f× on cluster-scale (dense %d B, summary %d B), want ≥5×",
			float64(db)/float64(sb), db, sb)
	}
	if perJob := sb / len(summary.Jobs); perJob > maxSummaryBytesPerJob {
		t.Errorf("summary tier retains %d B per job on cluster-scale, want ≤ %d", perJob, maxSummaryBytesPerJob)
	}
	if dense.Makespan != summary.Makespan {
		t.Errorf("tier changed simulation output: makespan %g vs %g", dense.Makespan, summary.Makespan)
	}
}

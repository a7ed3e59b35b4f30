package experiment

import (
	"bytes"
	"context"
	"math"
	"sort"
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
	s.TraceLevel = tier
	outs, err := RunScenarios(context.Background(), []Scenario{s}, seeds, SweepOptions{})
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

// TestSummaryTierResultShape pins the summary tier's observable surface:
// no raw series, populated summaries, and a recorded trace level.
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
	if s := res.Collector.CPUSummary(j.Name); s == nil || s.Count() == 0 {
		t.Fatal("summary tier did not populate cpu summaries")
	}
}

// TestSummaryTierMemoryClusterScale is the acceptance criterion for the
// memory model: on the 256-worker cluster-scale scenario the summary
// tier's collector must retain at least 5× less memory than the dense
// tier — O(jobs), not O(jobs × makespan) — and the sketches it keeps
// instead of raw series must stay within metrics.SketchAccuracy of the
// exact quantiles.
func TestSummaryTierMemoryClusterScale(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster-scale memory comparison is expensive; run without -short")
	}
	s, ok := ScenarioByName("cluster-scale")
	if !ok {
		t.Fatal("cluster-scale scenario missing")
	}
	run := func(tier metrics.Tier) *Result {
		spec := s.Spec(1)
		spec.TraceLevel = tier
		res, err := RunE(spec)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	dense := run(metrics.TierDense)
	summary := run(metrics.TierSummary)
	db, sb := dense.Collector.MemoryBytes(), summary.Collector.MemoryBytes()
	if db == 0 || sb == 0 {
		t.Fatalf("memory estimates: dense %d, summary %d", db, sb)
	}
	if db < 5*sb {
		t.Errorf("summary tier saves %.1f× on cluster-scale (dense %d B, summary %d B), want ≥5×",
			float64(db)/float64(sb), db, sb)
	}
	if dense.Makespan != summary.Makespan {
		t.Errorf("tier changed simulation output: makespan %g vs %g", dense.Makespan, summary.Makespan)
	}

	// The dense collector keeps both the raw CPU series and the streaming
	// sketches of the same samples, so it can check the summary tier's
	// accuracy claim against ground truth: for every job with a
	// meaningfully long series, the sketch's p50/p95/p99 must sit within
	// SketchAccuracy relative error of the exact sorted-sample quantile.
	col := dense.Collector
	checked := 0
	for _, job := range col.Jobs() {
		series, sum := col.CPUSeries(job.Name), col.CPUSummary(job.Name)
		if series == nil || sum == nil || series.Len() < 20 {
			continue
		}
		checked++
		vals := make([]float64, 0, series.Len())
		for _, p := range series.Points() {
			vals = append(vals, p.V)
		}
		sort.Float64s(vals)
		for _, q := range []float64{0.5, 0.95, 0.99} {
			exact := vals[int(q*float64(len(vals)-1))]
			est := sum.Quantile(q)
			if rel := math.Abs(est-exact) / math.Max(math.Abs(exact), 1e-9); rel > metrics.SketchAccuracy {
				t.Errorf("job %s p%g: sketch %g vs exact %g, relative error %g > %g",
					job.Name, q*100, est, exact, rel, metrics.SketchAccuracy)
			}
		}
	}
	if checked == 0 {
		t.Fatal("no job had a dense CPU series long enough to check the sketch")
	}
}

package experiment

import (
	"bytes"
	"context"
	"math"
	"reflect"
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

// TestRunQuantilesTierIndependent: both tiers feed the run sketches the
// same samples — the summary tier as they arrive, the dense tier when a
// read folds them — so every non-heavy scenario's archive carries equal
// run quantiles in either tier.
func TestRunQuantilesTierIndependent(t *testing.T) {
	for _, sc := range Scenarios() {
		quantiles := func(tier metrics.Tier) map[string]metrics.ArchiveQuantiles {
			spec := sc.Spec(1)
			spec.TraceLevel = tier
			res, err := RunE(spec)
			if err != nil {
				t.Fatalf("%s/%s: %v", sc.Name, tier, err)
			}
			return res.Collector.Export().Quantiles
		}
		summary, dense := quantiles(metrics.TierSummary), quantiles(metrics.TierDense)
		if len(summary) == 0 {
			t.Errorf("%s: summary archive carries no run quantiles", sc.Name)
		}
		if !reflect.DeepEqual(summary, dense) {
			t.Errorf("%s: run quantiles differ between tiers\nsummary: %+v\ndense:   %+v", sc.Name, summary, dense)
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
// tier — O(jobs), not O(jobs × makespan) — and at most
// maxSummaryBytesPerJob per job, and the run sketches it keeps instead of
// raw series must stay within metrics.SketchAccuracy of the exact
// quantiles.
func TestSummaryTierMemoryClusterScale(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster-scale memory comparison is expensive; run without -short")
	}
	// A job reads ≈1.4 KiB; a sketch per job and kind would make it
	// ≈5.3 KiB.
	const maxSummaryBytesPerJob = 2048
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
	if perJob := sb / len(summary.Jobs); perJob > maxSummaryBytesPerJob {
		t.Errorf("summary tier retains %d B per job on cluster-scale, want ≤ %d", perJob, maxSummaryBytesPerJob)
	}
	if dense.Makespan != summary.Makespan {
		t.Errorf("tier changed simulation output: makespan %g vs %g", dense.Makespan, summary.Makespan)
	}

	// The dense collector keeps the raw series the run sketches are built
	// from, so it can check the accuracy claim against ground truth: for
	// every kind, the run's p50/p95/p99 must sit within SketchAccuracy
	// relative error of the exact order statistic over all of that
	// kind's samples, every job's together.
	col := dense.Collector
	a := col.Export()
	for kind, byJob := range a.Series {
		var vals []float64
		for _, pts := range byJob {
			for _, p := range pts {
				vals = append(vals, p.V)
			}
		}
		if len(vals) == 0 {
			continue
		}
		sort.Float64s(vals)
		q := a.Quantiles[kind]
		if q.Count != int64(len(vals)) {
			t.Errorf("%s: run sketch holds %d samples, dense series %d", kind, q.Count, len(vals))
		}
		for _, c := range []struct {
			q   float64
			est float64
		}{{0.5, q.P50}, {0.95, q.P95}, {0.99, q.P99}} {
			exact := vals[int(c.q*float64(len(vals)-1))]
			if rel := math.Abs(c.est-exact) / math.Max(math.Abs(exact), 1e-9); rel > metrics.SketchAccuracy {
				t.Errorf("%s p%g: sketch %g vs exact %g, relative error %g > %g",
					kind, c.q*100, c.est, exact, rel, metrics.SketchAccuracy)
			}
		}
	}
	if len(a.Quantiles) != len(a.Series) {
		t.Errorf("run quantiles for %d kinds, dense series for %d", len(a.Quantiles), len(a.Series))
	}
}

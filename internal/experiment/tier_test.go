package experiment

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"repro/internal/flowcon"
	"repro/internal/metrics"
	"repro/internal/runtime"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/telemetry"
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

// statsPoller wraps a run's policy and also reads every node the way an
// outside monitor would: docker stats and `docker ps -a` every period.
type statsPoller struct {
	sched.Policy
	period float64
}

func (p statsPoller) Attach(engine sim.Scheduler, node sched.Node) {
	p.Policy.Attach(engine, node)
	var poll func()
	poll = func() {
		node.RunningStats()
		node.(runtime.Runtime).PS(true)
		engine.After(p.period, sim.PriorityMetric, "test.poll", poll)
	}
	engine.After(p.period, sim.PriorityMetric, "test.poll", poll)
}

// TestOutcomeIndependentOfObservation: watching a run never changes what
// it does. Every non-heavy scenario at seeds 1 and 2 (two scenarios at
// seed 1 under -short or -race) gives bit-identical job records,
// makespan, limit-update and Algorithm 1 run counts whether the collector
// keeps the summary tier (which schedules no collector tick at all) or
// samples densely every 1, 2 or 15 s, whether lifecycle spans are
// recorded, and whether an outside monitor polls every node's stats and
// container list. It holds because a daemon's reads are closed-form and
// change no state: put a fold back into a read and the job records move
// in the low bits.
func TestOutcomeIndependentOfObservation(t *testing.T) {
	scenarios, seeds := Scenarios(), []int64{1, 2}
	if testing.Short() || raceEnabled {
		scenarios, seeds = nil, seeds[:1]
		for _, name := range []string{"chaos-day", "hotspot-rebalance"} {
			sc, ok := ScenarioByName(name)
			if !ok {
				t.Fatalf("scenario %q not registered", name)
			}
			scenarios = append(scenarios, sc)
		}
	}
	type outcome struct {
		Jobs          []metrics.JobRecord
		Makespan      float64
		LimitUpdates  int
		AlgorithmRuns int
	}
	type watch struct {
		name   string
		tier   metrics.Tier
		period float64
		spans  bool
		poll   float64 // statsPoller period; 0 = no poller
	}
	watches := []watch{
		{"summary, no collector tick", metrics.TierSummary, 2, false, 0},
		{"summary polled every 1.5 s", metrics.TierSummary, 2, false, 1.5},
		{"dense every 1 s", metrics.TierDense, 1, false, 0},
		{"dense every 15 s", metrics.TierDense, 15, false, 0},
		{"dense every 2 s with lifecycle spans", metrics.TierDense, 2, true, 0},
	}
	for _, sc := range scenarios {
		for _, seed := range seeds {
			var ref outcome
			for i, w := range watches {
				spec := sc.Spec(seed)
				spec.TraceLevel = w.tier
				spec.SamplePeriod = w.period
				if w.spans {
					spec.Tracer = telemetry.NewTracer(0)
				}
				// The poller hides the policy from RunE's counts, so
				// count its FlowCon controllers here.
				var fcs []*sched.FlowCon
				if w.poll > 0 {
					inner := spec.NewPolicy
					spec.NewPolicy = func(tr flowcon.Tracer) sched.Policy {
						p := inner(tr)
						if fc, ok := p.(*sched.FlowCon); ok {
							fcs = append(fcs, fc)
						}
						return statsPoller{p, w.poll}
					}
				}
				res, err := RunE(spec)
				if err != nil {
					t.Fatalf("%s seed %d, %s: %v", sc.Name, seed, w.name, err)
				}
				for _, fc := range fcs {
					if c := fc.Controller(); c != nil {
						res.AlgorithmRuns += c.Runs()
						res.LimitUpdates += c.LimitUpdates()
					}
				}
				got := outcome{res.Jobs, res.Makespan, res.LimitUpdates, res.AlgorithmRuns}
				if i == 0 {
					ref = got
					continue
				}
				if !reflect.DeepEqual(got, ref) {
					t.Errorf("%s seed %d: %s changed the outcome against %s: makespan %v/%v, limit updates %d/%d, algorithm runs %d/%d (or job records)",
						sc.Name, seed, w.name, watches[0].name, got.Makespan, ref.Makespan,
						got.LimitUpdates, ref.LimitUpdates, got.AlgorithmRuns, ref.AlgorithmRuns)
				}
			}
		}
	}
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
// memory model: on the 256-worker cluster-scale scenario the summary
// tier's collector must retain at least 5× less memory than the dense
// tier — O(jobs), not O(jobs × makespan) — and at most
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
}

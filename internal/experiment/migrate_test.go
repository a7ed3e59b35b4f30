package experiment

import (
	"bytes"
	"context"
	"math"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/migrate"
	"repro/internal/workload"
)

// hotspotPair fetches the acceptance pair: the same skewed workload with
// and without the GE-aware rebalancer.
func hotspotPair(t *testing.T) (Scenario, Scenario) {
	t.Helper()
	base, ok := ScenarioByName("hotspot")
	if !ok {
		t.Fatal("hotspot scenario missing")
	}
	reb, ok := ScenarioByName("hotspot-rebalance")
	if !ok {
		t.Fatal("hotspot-rebalance scenario missing")
	}
	return base, reb
}

// The acceptance criterion for internal/migrate: on the hotspot scenario
// (skewed first-fit arrivals concentrating jobs on one node), enabling
// the rebalancer improves both makespan and 95th-percentile completion
// versus the no-migration run of the same seeds, and the improvement is
// visible in the ReportScenario table.
func TestHotspotRebalancerImprovesMakespanAndP95(t *testing.T) {
	base, reb := hotspotPair(t)
	seeds := ScenarioSeeds(3)
	outs, err := RunScenarios(context.Background(), []Scenario{base, reb}, seeds, SweepOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	baseAgg, ok := outs[0].aggregate()
	if !ok {
		t.Fatal("hotspot produced no results")
	}
	rebAgg, ok := outs[1].aggregate()
	if !ok {
		t.Fatal("hotspot-rebalance produced no results")
	}
	if !baseAgg.finished || !rebAgg.finished {
		t.Fatalf("runs did not finish: base=%v reb=%v", baseAgg.finished, rebAgg.finished)
	}
	if baseAgg.migrated != 0 {
		t.Fatalf("no-migration baseline migrated %g jobs", baseAgg.migrated)
	}
	if rebAgg.migrated == 0 {
		t.Fatal("rebalancer executed no migrations")
	}
	if rebAgg.makespan >= baseAgg.makespan {
		t.Fatalf("rebalancer did not improve makespan: %.1f vs %.1f",
			rebAgg.makespan, baseAgg.makespan)
	}
	if rebAgg.p95CT >= baseAgg.p95CT {
		t.Fatalf("rebalancer did not improve p95 completion: %.1f vs %.1f",
			rebAgg.p95CT, baseAgg.p95CT)
	}
	// And the report surfaces the migration column for both rows.
	var buf bytes.Buffer
	ReportScenario(&buf, outs)
	out := buf.String()
	if !strings.Contains(out, "migr") || !strings.Contains(out, "hotspot-rebalance") {
		t.Fatalf("report missing migration column or scenario row:\n%s", out)
	}
}

// Per-seed determinism: a rebalanced scenario re-run with the same seed
// reproduces the identical outcome (migrations are on the deterministic
// event path, not a source of nondeterminism).
func TestRebalancedScenarioSeedDeterministic(t *testing.T) {
	_, reb := hotspotPair(t)
	run := func() *Result {
		res, err := RunE(reb.Spec(2))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Makespan != b.Makespan || a.Migrated != b.Migrated {
		t.Fatalf("rebalanced run not deterministic: makespan %v/%v migrations %d/%d",
			a.Makespan, b.Makespan, a.Migrated, b.Migrated)
	}
	if a.Migrated == 0 {
		t.Fatal("the rebalancer moved nothing")
	}
}

// rolling-drain completes every job: each worker is cordoned and drained
// in turn, jobs live-migrate with progress intact, and the node reopens.
func TestRollingDrainScenarioCompletes(t *testing.T) {
	s, ok := ScenarioByName("rolling-drain")
	if !ok {
		t.Fatal("rolling-drain scenario missing")
	}
	res, err := RunE(s.Spec(1))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("rolling-drain did not complete")
	}
	if res.Migrated == 0 {
		t.Fatal("rolling drain executed no migrations")
	}
	// Drained-and-reopened cluster: every job finished exactly once, and
	// the moves are recorded as lossless Migrations, not Restarts (no
	// worker ever failed here).
	if len(res.Jobs) != res.Submitted {
		t.Fatalf("placed %d of %d jobs", len(res.Jobs), res.Submitted)
	}
	migrations := 0
	for _, j := range res.Jobs {
		if !j.Finished {
			t.Fatalf("job %s unfinished", j.Name)
		}
		migrations += j.Migrations
	}
	if migrations == 0 {
		t.Fatal("no job record carries a Migration count")
	}
}

// With no worker ever down and no thaw ever stranded, every migration is
// a lossless move: Restarts stay zero across the rebalanced hotspot.
func TestMigrationsAreNotRestarts(t *testing.T) {
	_, reb := hotspotPair(t)
	res, err := RunE(reb.Spec(1))
	if err != nil {
		t.Fatal(err)
	}
	migrations := 0
	for _, j := range res.Jobs {
		if j.Restarts != 0 {
			t.Fatalf("job %s reports %d restarts in a failure-free run", j.Name, j.Restarts)
		}
		migrations += j.Migrations
	}
	if migrations != res.Migrated {
		t.Fatalf("job records carry %d migrations, result says %d", migrations, res.Migrated)
	}
}

// A drain that strands every job in the admission queue (single worker,
// cordoned) must recover at uncordon time: Kick revives the queue even
// though no container exit will ever fire.
func TestUncordonRevivesStrandedQueue(t *testing.T) {
	res := Run(Spec{
		Name:        "strand-and-revive",
		NewPolicy:   NAPolicy(20),
		Submissions: workload.FixedSchedule()[:1],
		Drains:      []Drain{{Worker: 0, At: 5, UncordonAt: 50}},
		Horizon:     2000,
	})
	if !res.Completed {
		t.Fatal("stranded job was never revived after uncordon")
	}
	if res.Migrated != 1 {
		t.Fatalf("Migrated = %d, want the one drain thaw", res.Migrated)
	}
	j := res.Jobs[0]
	// The job landed through the admission queue, not a direct thaw.
	if j.Migrations != 0 || j.Restarts != 1 {
		t.Fatalf("queue-fallback thaw recorded Migrations=%d Restarts=%d, want 0/1",
			j.Migrations, j.Restarts)
	}
}

// An unmappable framework in a submission fails RunE upfront instead of
// panicking mid-run at launch.
func TestUnknownFrameworkRejectedUpfront(t *testing.T) {
	subs := workload.FixedSchedule()
	subs[0].Profile.Framework = "mxnet"
	if _, err := RunE(Spec{
		Name: "bad-framework", NewPolicy: NAPolicy(20), Submissions: subs,
	}); err == nil {
		t.Fatal("submission with unknown framework accepted")
	}
}

// A worker failure in a rebalanced cluster must not double-recover jobs:
// in-flight migrations land exactly once and everything completes.
func TestFailureWithRebalancerRecoversExactlyOnce(t *testing.T) {
	res := Run(Spec{
		Name:        "fail-under-rebalance",
		NewPolicy:   FlowConPolicy(0.03, 30),
		Submissions: workload.RandomN(8, 11),
		Workers:     3,
		Placement:   cluster.FirstFit,
		Rebalance:   &migrate.Config{Interval: 15, MaxMovesPerScan: 2},
		Faults:      crashAt(0, 90),
	})
	if !res.Completed {
		t.Fatal("run did not survive the failure")
	}
	// Exactly once: every submitted job has one record and one finish.
	if len(res.Jobs) != res.Submitted {
		t.Fatalf("%d records for %d submissions", len(res.Jobs), res.Submitted)
	}
	names := map[string]bool{}
	for _, j := range res.Jobs {
		if names[j.Name] {
			t.Fatalf("job %s recorded twice", j.Name)
		}
		names[j.Name] = true
		if !j.Finished {
			t.Fatalf("job %s unfinished", j.Name)
		}
	}
}

// Spec-level validation of the new migration fields.
func TestMigrationSpecValidation(t *testing.T) {
	base := Spec{
		Name:        "bad",
		NewPolicy:   NAPolicy(20),
		Submissions: workload.FixedSchedule(),
	}
	drainOOR := base
	drainOOR.Drains = []Drain{{Worker: 5, At: 10}}
	if _, err := RunE(drainOOR); err == nil {
		t.Fatal("out-of-range drain index accepted")
	}
	badUncordon := base
	badUncordon.Drains = []Drain{{Worker: 0, At: 10, UncordonAt: 5}}
	if _, err := RunE(badUncordon); err == nil {
		t.Fatal("uncordon before drain accepted")
	}
	badCost := base
	badCost.MigrationCost = cluster.MigrationCost{FreezeSec: -1}
	if _, err := RunE(badCost); err == nil {
		t.Fatal("negative migration cost accepted")
	}
	if err := RegisterScenario(Scenario{
		Name:           "test-bad-drain",
		StreamWorkload: sliceWorkload(workload.RandomFive),
		Drains:         []Drain{{Worker: 3, At: 1}},
	}); err == nil {
		t.Fatal("scenario with out-of-range drain accepted")
	}
}

// A NaN or infinite drain cost is rejected up front, not discovered
// mid-run as a thaw scheduled at NaN (a panic) or never (a run that
// silently fails to complete).
func TestNonFiniteMigrationCostRejected(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1)} {
		spec := Spec{
			Name:          "non-finite-cost",
			NewPolicy:     NAPolicy(20),
			Submissions:   workload.FixedSchedule(),
			Workers:       2,
			Drains:        []Drain{{Worker: 0, At: 10}},
			MigrationCost: cluster.MigrationCost{FreezeSec: v},
		}
		if _, err := RunE(spec); err == nil {
			t.Errorf("migration cost FreezeSec %g accepted", v)
		}
	}
}

package main

import (
	"context"
	"testing"

	"repro/internal/cluster"
	"repro/internal/experiment"
	"repro/internal/metrics"
	"repro/internal/migrate"
)

// edited expands a registered scenario for seed 1 and applies the flags'
// edit.
func edited(t *testing.T, f runFlags, name string) experiment.Spec {
	t.Helper()
	s, ok := experiment.ScenarioByName(name)
	if !ok {
		t.Fatalf("scenario %q not registered", name)
	}
	spec := s.Spec(1)
	f.edit(&spec)
	return spec
}

// -migration-cost reprices the drains and every rebalancer: the one a
// scenario defines and the one -rebalance attaches.
func TestMigrationCostReprices(t *testing.T) {
	f := runFlags{rebalance: true, migrationCost: 4, shardSim: 1}
	want := cluster.DefaultMigrationCost()
	want.FreezeSec, want.ThawSec = 2, 2
	for _, name := range []string{"rolling-drain", "hotspot-rebalance", "poisson"} {
		spec := edited(t, f, name)
		if spec.MigrationCost != want {
			t.Errorf("%s: drain cost %+v, want %+v", name, spec.MigrationCost, want)
		}
		if spec.Rebalance == nil || spec.Rebalance.Cost != want {
			t.Errorf("%s: rebalancer %+v, want cost %+v", name, spec.Rebalance, want)
		}
	}
	if spec := edited(t, runFlags{shardSim: 1}, "rolling-drain"); spec.MigrationCost != (cluster.MigrationCost{}) {
		t.Errorf("no -migration-cost still priced drains at %+v", spec.MigrationCost)
	}
}

// -rebalance attaches the default rebalancer only where the scenario
// defines none: hotspot-rebalance keeps its own Interval and
// MaxMovesPerScan.
func TestRebalanceAttachesOnlyWhereNone(t *testing.T) {
	f := runFlags{rebalance: true, shardSim: 1}
	if spec := edited(t, f, "poisson"); spec.Rebalance == nil || *spec.Rebalance != (migrate.Config{}) {
		t.Errorf("poisson: rebalancer %+v, want the default config", spec.Rebalance)
	}
	spec := edited(t, f, "hotspot-rebalance")
	if r := spec.Rebalance; r == nil || r.Interval != 20 || r.MaxMovesPerScan != 2 {
		t.Errorf("hotspot-rebalance: rebalancer %+v, want Interval 20 and MaxMovesPerScan 2", r)
	}
	if spec := edited(t, runFlags{shardSim: 1}, "poisson"); spec.Rebalance != nil {
		t.Errorf("no -rebalance attached %+v", spec.Rebalance)
	}
}

// Expanded Specs share the registry's Rebalance pointer, so repricing
// it must copy: after an edited run the registered scenario still holds
// the config it was registered with (the other tests' edits included).
func TestEditLeavesRegistryUnchanged(t *testing.T) {
	s, _ := experiment.ScenarioByName("hotspot-rebalance")
	registered := migrate.Config{Interval: 20, MaxMovesPerScan: 2}
	f := runFlags{rebalance: true, migrationCost: 4, shardSim: 1}
	outs, err := experiment.RunScenarios(context.Background(), []experiment.Scenario{s},
		experiment.ScenarioSeeds(1), experiment.SweepOptions{Parallelism: 1}, f.edit)
	if err != nil {
		t.Fatal(err)
	}
	if outs[0].Failed() != 0 {
		t.Fatalf("edited run failed: %v", outs[0].Reports[0].Err)
	}
	after, _ := experiment.ScenarioByName("hotspot-rebalance")
	if *after.Rebalance != registered {
		t.Fatalf("registry's rebalancer is %+v, registered as %+v", *after.Rebalance, registered)
	}
}

// -trace-out gives every Spec its own tracer; without it none gets one.
func TestTraceOutGivesEachSpecATracer(t *testing.T) {
	f := runFlags{shardSim: 1, traceOut: "spans.jsonl"}
	a, b := edited(t, f, "poisson"), edited(t, f, "poisson")
	if a.Tracer == nil || b.Tracer == nil {
		t.Fatal("-trace-out left a Spec without a tracer")
	}
	if a.Tracer == b.Tracer {
		t.Fatal("two Specs share one tracer ring")
	}
	if spec := edited(t, runFlags{shardSim: 1}, "poisson"); spec.Tracer != nil {
		t.Fatal("tracer attached without -trace-out")
	}
}

// -shard-sim 0 is auto (negative SimShards); -trace-level picks the tier.
func TestShardSimAndTraceLevel(t *testing.T) {
	for flag, want := range map[int]int{0: -1, 1: 1, 4: 4} {
		if got := edited(t, runFlags{shardSim: flag}, "bursty").SimShards; got != want {
			t.Errorf("-shard-sim %d: SimShards %d, want %d", flag, got, want)
		}
	}
	for flag, want := range map[string]metrics.Tier{"summary": metrics.TierSummary, "dense": metrics.TierDense} {
		tier, err := metrics.ParseTier(flag)
		if err != nil {
			t.Fatal(err)
		}
		if got := edited(t, runFlags{shardSim: 1, tier: tier}, "bursty").TraceLevel; got != want {
			t.Errorf("-trace-level %s: TraceLevel %v, want %v", flag, got, want)
		}
	}
}

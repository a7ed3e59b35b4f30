package experiment

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/metrics"
)

// runScenarioShards executes a registered scenario at the given shard
// count and returns the result.
func runScenarioShards(t *testing.T, name string, seed int64, shards int) *Result {
	t.Helper()
	s, ok := ScenarioByName(name)
	if !ok {
		t.Fatalf("scenario %q not registered", name)
	}
	spec := s.Spec(seed)
	spec.SimShards = shards
	// Dense tier: the equivalence assertions deep-compare raw per-job
	// series, which the summary default does not retain.
	spec.TraceLevel = metrics.TierDense
	res, err := RunE(spec)
	if err != nil {
		t.Fatalf("%s (shards=%d): %v", name, shards, err)
	}
	return res
}

// assertShardEquivalent requires two results of the same spec to be
// indistinguishable: identical job records (start/finish times, workers,
// container ids, restarts, migrations), identical aggregate counters, and
// identical per-job series — the full observable surface of a run. Shard
// bookkeeping fields (SimShards/SimBatches) are the one permitted
// difference.
func assertShardEquivalent(t *testing.T, serial, sharded *Result) {
	t.Helper()
	if !reflect.DeepEqual(serial.Jobs, sharded.Jobs) {
		t.Errorf("job records diverged between serial and sharded runs")
		for i := range serial.Jobs {
			if i < len(sharded.Jobs) && !reflect.DeepEqual(serial.Jobs[i], sharded.Jobs[i]) {
				t.Errorf("  first diff at job %d:\n  serial:  %+v\n  sharded: %+v",
					i, serial.Jobs[i], sharded.Jobs[i])
				break
			}
		}
	}
	if serial.Makespan != sharded.Makespan {
		t.Errorf("makespan: serial %v, sharded %v", serial.Makespan, sharded.Makespan)
	}
	if serial.Submitted != sharded.Submitted || serial.Completed != sharded.Completed {
		t.Errorf("submitted/completed: serial %d/%v, sharded %d/%v",
			serial.Submitted, serial.Completed, sharded.Submitted, sharded.Completed)
	}
	if serial.AlgorithmRuns != sharded.AlgorithmRuns || serial.LimitUpdates != sharded.LimitUpdates {
		t.Errorf("overhead counters: serial %d/%d, sharded %d/%d",
			serial.AlgorithmRuns, serial.LimitUpdates, sharded.AlgorithmRuns, sharded.LimitUpdates)
	}
	if serial.Requeued != sharded.Requeued || serial.Migrated != sharded.Migrated {
		t.Errorf("requeued/migrated: serial %d/%d, sharded %d/%d",
			serial.Requeued, serial.Migrated, sharded.Requeued, sharded.Migrated)
	}
	for _, j := range serial.Jobs {
		if !reflect.DeepEqual(serial.Collector.GrowthSeries(j.Name).Points(),
			sharded.Collector.GrowthSeries(j.Name).Points()) {
			t.Errorf("growth series diverged for %s", j.Name)
		}
		if !reflect.DeepEqual(serial.Collector.LimitSeries(j.Name).Points(),
			sharded.Collector.LimitSeries(j.Name).Points()) {
			t.Errorf("limit series diverged for %s", j.Name)
		}
		if !reflect.DeepEqual(serial.Collector.CPUSeries(j.Name).Points(),
			sharded.Collector.CPUSeries(j.Name).Points()) {
			t.Errorf("cpu series diverged for %s", j.Name)
		}
	}
}

// TestShardedEquivalenceHotspotRebalance pins serial/sharded equivalence
// on the migration-heavy acceptance scenario: first-fit hotspots, the
// GE-aware rebalancer, checkpoint/restore moves, and a manager queue that
// flips the executor between its reactive-serial and parallel regimes.
func TestShardedEquivalenceHotspotRebalance(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		serial := runScenarioShards(t, "hotspot-rebalance", seed, 1)
		sharded := runScenarioShards(t, "hotspot-rebalance", seed, 8)
		assertShardEquivalent(t, serial, sharded)
	}
}

// TestShardedEquivalenceDiurnal covers the cap-free multi-worker case
// where the executor spends nearly the whole run in parallel batches.
func TestShardedEquivalenceDiurnal(t *testing.T) {
	serial := runScenarioShards(t, "diurnal", 3, 1)
	sharded := runScenarioShards(t, "diurnal", 3, 4)
	assertShardEquivalent(t, serial, sharded)
	if sharded.SimBatches == 0 {
		t.Error("diurnal sharded run executed no parallel batches — sharding never engaged")
	}
}

// TestShardedEquivalenceClusterScale is the acceptance test for the
// sharded engine: the 256-worker perf-baseline scenario must be
// bit-identical between the serial engine and parallel lanes, and the
// sharded run must actually have parallelized.
func TestShardedEquivalenceClusterScale(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster-scale equivalence is expensive; run without -short")
	}
	serial := runScenarioShards(t, "cluster-scale", 1, 1)
	sharded := runScenarioShards(t, "cluster-scale", 1, 8)
	assertShardEquivalent(t, serial, sharded)
	if sharded.SimBatches == 0 {
		t.Error("cluster-scale sharded run executed no parallel batches — sharding never engaged")
	}
	if len(serial.Jobs) == 0 || !serial.Completed {
		t.Errorf("cluster-scale serial run incomplete: %d jobs, completed=%v",
			len(serial.Jobs), serial.Completed)
	}
}

// TestShardedAutoResolvesToGOMAXPROCS pins the auto knob: a negative
// SimShards must resolve rather than fall back to serial silently.
func TestShardedAutoResolvesToGOMAXPROCS(t *testing.T) {
	serial := runScenarioShards(t, "bursty", 1, 1)
	auto := runScenarioShards(t, "bursty", 1, -1)
	assertShardEquivalent(t, serial, auto)
	if auto.SimShards < 1 {
		t.Errorf("auto shards resolved to %d", auto.SimShards)
	}
}

// TestShardedArchiveMatchesSerial: in the summary tier controllers on
// different worker lanes call the collector's RecordRun concurrently,
// without a lock, each appending to the growth trajectories of its own
// lane's jobs. The archive must not show it: sharded and serial Export
// JSON are byte-identical (run this under -race to check that no two
// lanes write the same state).
func TestShardedArchiveMatchesSerial(t *testing.T) {
	export := func(name string, shards int) []byte {
		s, ok := ScenarioByName(name)
		if !ok {
			t.Fatalf("scenario %q not registered", name)
		}
		spec := s.Spec(1)
		spec.SimShards = shards
		spec.TraceLevel = metrics.TierSummary
		res, err := RunE(spec)
		if err != nil {
			t.Fatalf("%s (shards=%d): %v", name, shards, err)
		}
		if shards > 1 && res.SimBatches == 0 {
			t.Fatalf("%s: sharded run executed no parallel batches", name)
		}
		var buf bytes.Buffer
		if err := res.Collector.Export().WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for _, name := range []string{"hotspot-rebalance", "cluster-scale"} {
		if serial, sharded := export(name, 1), export(name, 4); !bytes.Equal(serial, sharded) {
			t.Errorf("%s: sharded archive differs from serial (%d vs %d bytes)", name, len(sharded), len(serial))
		}
	}
}

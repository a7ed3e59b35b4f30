package experiment

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/cluster"
	"repro/internal/dlmodel"
	"repro/internal/faults"
	"repro/internal/workload"
)

func chaosScenario(t *testing.T, name string) Scenario {
	t.Helper()
	s, ok := ScenarioByName(name)
	if !ok {
		t.Fatalf("scenario %q not registered", name)
	}
	return s
}

func TestChaosFamilyRegistered(t *testing.T) {
	light := map[string]bool{}
	for _, s := range Scenarios() {
		light[s.Name] = true
	}
	for _, name := range []string{"chaos-day", "chaos-day-scratch"} {
		if !light[name] {
			t.Errorf("%s missing from the sweep-weight registry", name)
		}
	}
	if light["chaos-megacluster"] {
		t.Error("chaos-megacluster leaked into the sweep-weight registry")
	}
	mega := chaosScenario(t, "chaos-megacluster")
	if !mega.Heavy {
		t.Error("chaos-megacluster not marked heavy")
	}
	day := chaosScenario(t, "chaos-day")
	scratch := chaosScenario(t, "chaos-day-scratch")
	if day.Recovery.CheckpointEverySec <= 0 {
		t.Error("chaos-day does not checkpoint")
	}
	if scratch.Recovery.CheckpointEverySec != 0 {
		t.Error("chaos-day-scratch checkpoints — it must be the scratch ablation")
	}
}

// The tentpole acceptance criterion: under the identical workload and
// fault storm, checkpoint-aware recovery strictly beats restart-from-
// scratch on makespan AND wasted work, per seed.
func TestCheckpointRecoveryBeatsScratch(t *testing.T) {
	day := chaosScenario(t, "chaos-day")
	scratch := chaosScenario(t, "chaos-day-scratch")
	for _, seed := range []int64{1, 2} {
		ckpt, err := RunE(day.Spec(seed))
		if err != nil {
			t.Fatalf("chaos-day seed %d: %v", seed, err)
		}
		none, err := RunE(scratch.Spec(seed))
		if err != nil {
			t.Fatalf("chaos-day-scratch seed %d: %v", seed, err)
		}
		if ckpt.Availability == nil || none.Availability == nil {
			t.Fatalf("seed %d: availability ledger missing from a faulted run", seed)
		}
		if ckpt.Availability.Checkpoints == 0 {
			t.Fatalf("seed %d: chaos-day took no checkpoints", seed)
		}
		if ckpt.Makespan >= none.Makespan {
			t.Errorf("seed %d: checkpointed makespan %.1f not strictly better than scratch %.1f",
				seed, ckpt.Makespan, none.Makespan)
		}
		if ckpt.Availability.WastedWorkSec >= none.Availability.WastedWorkSec {
			t.Errorf("seed %d: checkpointed wasted work %.1f not strictly better than scratch %.1f",
				seed, ckpt.Availability.WastedWorkSec, none.Availability.WastedWorkSec)
		}
	}
}

// Chaos runs carry a coherent availability ledger: faults happened, every
// lost placement is classified, and the delivered-capacity fraction is a
// real fraction.
func TestChaosAvailabilityLedgerCoherent(t *testing.T) {
	res, err := RunE(chaosScenario(t, "chaos-day").Spec(1))
	if err != nil {
		t.Fatal(err)
	}
	a := res.Availability
	if a == nil || !a.Faulted() {
		t.Fatal("chaos run reported no fault activity")
	}
	if a.Crashes == 0 || a.Kills == 0 {
		t.Fatalf("storm injected crashes=%d kills=%d, want both > 0", a.Crashes, a.Kills)
	}
	if f := a.Frac(); f <= 0 || f >= 1 {
		t.Fatalf("availability fraction %g outside (0, 1) for a faulted run", f)
	}
	if got := a.RestartsFromCheckpoint + a.RestartsFromScratch; got < a.Kills {
		t.Fatalf("restart provenance (%d) misses some of the %d kills", got, a.Kills)
	}
	if int64(a.RestartsFromCheckpoint+a.RestartsFromScratch) < a.MTTRCount() {
		t.Fatalf("MTTR sketch holds %d samples for %d losses",
			a.MTTRCount(), a.RestartsFromCheckpoint+a.RestartsFromScratch)
	}
}

// The chaos invariant: one seed fixes the whole run — schedule and fault
// trace — so the rendered report is byte-identical across sweep-pool
// widths.
func TestChaosScenarioDeterministic(t *testing.T) {
	base := []Scenario{chaosScenario(t, "chaos-day"), chaosScenario(t, "chaos-day-scratch")}
	seeds := ScenarioSeeds(2)
	render := func(par int) string {
		outs, err := RunScenarios(context.Background(), base, seeds, SweepOptions{Parallelism: par}, nil)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		ReportScenario(&buf, outs)
		return buf.String()
	}
	serial := render(1)
	if parallel := render(8); parallel != serial {
		t.Fatalf("report differs between -parallel 1 and 8:\n%s\nvs\n%s", serial, parallel)
	}
}

// drillSpec is the mid-migration crash drill harness: two long jobs
// spread over two workers, a drain that migrates w0's job at t=50 with a
// 10s freeze→thaw window, and a scripted fault storm on top.
func drillSpec(name string, script []faults.ScriptedFault) Spec {
	return Spec{
		Name:      name,
		NewPolicy: NAPolicy(20),
		Submissions: []workload.Submission{
			{Name: "a", Profile: dlmodel.VAEPyTorch(), At: 0},
			{Name: "b", Profile: dlmodel.VAEPyTorch(), At: 0},
		},
		Workers:       2,
		Drains:        []Drain{{Worker: 0, At: 50}},
		MigrationCost: cluster.MigrationCost{FreezeSec: 5, ThawSec: 5, BytesPerSec: 1 << 40},
		Faults:        &faults.Plan{Script: script},
		Horizon:       3000,
	}
}

// assertExactlyOnce checks the drill's invariant: every submitted job has
// one record and one finish — nothing lost, nothing duplicated.
func assertExactlyOnce(t *testing.T, res *Result) {
	t.Helper()
	if !res.Completed {
		t.Fatal("drill did not complete")
	}
	if len(res.Jobs) != res.Submitted {
		t.Fatalf("%d records for %d submissions", len(res.Jobs), res.Submitted)
	}
	seen := map[string]bool{}
	for _, j := range res.Jobs {
		if seen[j.Name] {
			t.Fatalf("job %s recorded twice", j.Name)
		}
		seen[j.Name] = true
		if !j.Finished {
			t.Fatalf("job %s unfinished", j.Name)
		}
	}
}

// The source worker dies two seconds after its job's drain freeze: the
// checkpoint already left the pool, so the migration lands exactly once
// on the survivor and the crash loses nothing.
func TestSourceCrashAfterFreezeLandsExactlyOnce(t *testing.T) {
	res, err := RunE(drillSpec("source-dies-post-freeze", []faults.ScriptedFault{
		{At: 57, Kind: faults.KindCrash, Worker: 0},
	}))
	if err != nil {
		t.Fatal(err)
	}
	assertExactlyOnce(t, res)
	if res.Availability == nil || res.Availability.Crashes != 1 {
		t.Fatal("crash not recorded in the availability ledger")
	}
	for _, j := range res.Jobs {
		if j.Name != "a" {
			continue
		}
		// The move completed as a lossless migration, not a restart: the
		// frozen state outlived its source worker.
		if j.Migrations != 1 || j.Restarts != 0 {
			t.Fatalf("a recorded Migrations=%d Restarts=%d, want 1/0", j.Migrations, j.Restarts)
		}
	}
}

// The destination worker dies before the thaw arrives: the in-flight
// checkpoint falls back to the admission queue (the source is cordoned by
// its drain), and the scripted repair revives everything exactly once.
func TestDestinationCrashBeforeThawRecovers(t *testing.T) {
	res, err := RunE(drillSpec("destination-dies-pre-thaw", []faults.ScriptedFault{
		{At: 57, Kind: faults.KindCrash, Worker: 1},
		{At: 100, Kind: faults.KindRepair, Worker: 1},
	}))
	if err != nil {
		t.Fatal(err)
	}
	assertExactlyOnce(t, res)
	a := res.Availability
	if a == nil || a.Crashes != 1 || a.Repairs != 1 {
		t.Fatal("crash/repair pair not recorded in the availability ledger")
	}
	// b was running on the crashed destination: it restarted. a's thaw
	// found no hostable worker and landed through the queue — also a
	// restart, but its checkpointed progress rode along.
	for _, j := range res.Jobs {
		if j.Restarts == 0 {
			t.Fatalf("job %s shows no restart after losing its worker", j.Name)
		}
	}
}

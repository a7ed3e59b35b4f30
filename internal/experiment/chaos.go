package experiment

import (
	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/workload"
)

// This file defines the chaos-day scenario family: the fault-injection
// stress runs behind the self-healing layer's acceptance experiment.
// chaos-day and chaos-day-scratch share one workload and one fault plan
// and differ only in checkpointing, so the pair isolates exactly what a
// periodic snapshot buys under continuous churn (a test asserts the
// checkpointing member strictly wins on makespan and wasted work).
// chaos-megacluster scales the same storm to the streaming thousand-
// worker path. All members are byte-identical across -parallel widths
// and -shard-sim counts like every other scenario; the two light
// members ride "-scenario all" and the make determinism gate.

// chaosPlan is the shared storm: continuous worker churn, transient
// container kills, and degraded-node episodes, all bounded by until so
// the cluster heals and every run converges.
func chaosPlan(mtbf, mttr, killEvery, degradeEvery, degradeFor, until float64) *faults.Plan {
	return &faults.Plan{
		Churn:    &faults.Churn{MTBFSec: mtbf, MTTRSec: mttr},
		Kills:    &faults.Kills{MeanIntervalSec: killEvery},
		Degrade:  &faults.Degrade{MeanIntervalSec: degradeEvery, MeanDurationSec: degradeFor},
		UntilSec: until,
	}
}

// chaosRecovery is the self-healing side: retry budget with backoff,
// flap cordons, and admission shedding. checkpointEvery > 0 adds the
// periodic priced snapshots; 0 is the restart-from-scratch ablation.
func chaosRecovery(checkpointEvery float64) *cluster.RecoveryPolicy {
	return &cluster.RecoveryPolicy{
		CheckpointEverySec: checkpointEvery,
		// Snapshots write to node-local storage: same fixed quiesce cost
		// as a migration but a fat local write path, so a typical 0.3-1.4
		// GB image costs ~0.5-0.6s of paused training per snapshot.
		CheckpointCost:  cluster.MigrationCost{FreezeSec: 0.2, ThawSec: 0.2, BytesPerSec: 8 << 30},
		RetryBudget:     10,
		BackoffBaseSec:  0.5,
		BackoffCapSec:   8,
		FlapThreshold:   3,
		FlapWindowSec:   120,
		FlapCooldownSec: 60,
		ShedBelowFrac:   0.3,
	}
}

func init() {
	// The light members: 8 workers under a steady arrival stream with the
	// full storm on top. Worker MTBF 400s across 8 workers means a crash
	// somewhere every ~50s; kills and degradations land between them, and
	// everything stops initiating at 600s so the tail is a clean recovery.
	arrivals := workload.Poisson{Rate: 0.06, WindowSec: 300, MaxJobs: 18}
	gen := workload.Generator{Process: arrivals, Mix: workload.CatalogMix(), MinJobs: 6}
	plan := func() *faults.Plan { return chaosPlan(400, 25, 90, 150, 60, 600) }
	mustRegisterScenario(Scenario{
		Name: "chaos-day",
		Description: "full fault storm with checkpoint-aware self-healing on 8 workers: " +
			arrivals.Describe(),
		StreamWorkload:         gen.Stream,
		Workers:                8,
		MaxContainersPerWorker: 8,
		Faults:                 plan(),
		Recovery:               chaosRecovery(30),
	})
	mustRegisterScenario(Scenario{
		Name: "chaos-day-scratch",
		Description: "chaos-day storm without periodic checkpoints: every crash restarts " +
			"the job from scratch (the ablation the acceptance test beats)",
		StreamWorkload:         gen.Stream,
		Workers:                8,
		MaxContainersPerWorker: 8,
		Faults:                 plan(),
		Recovery:               chaosRecovery(0),
	})
	// The heavy member: the megacluster-smoke production-day slice with a
	// proportionally scaled storm — a thousand 4-core workers, a crash
	// somewhere every ~7s, a kill every ~5s. Heavy like its siblings: run
	// it by name, never in registry-wide sweeps.
	proc, mgen := productionDay(28, 1800, 0, 80000)
	mustRegisterScenario(Scenario{
		Name: "chaos-megacluster",
		Description: "megacluster-smoke production day under the fault storm: " +
			proc.Describe(),
		StreamWorkload:         mgen.Stream,
		Heavy:                  true,
		Workers:                1000,
		Capacity:               4,
		MaxContainersPerWorker: 8,
		ContentionOverhead:     -1,
		SamplePeriod:           15,
		Horizon:                6000,
		Faults:                 chaosPlan(7200, 60, 5, 30, 120, 1800),
		Recovery: &cluster.RecoveryPolicy{
			CheckpointEverySec: 60,
			CheckpointCost:     cluster.MigrationCost{FreezeSec: 0.2, ThawSec: 0.2, BytesPerSec: 8 << 30},
			RetryBudget:        6,
			BackoffBaseSec:     1,
			BackoffCapSec:      30,
			FlapThreshold:      3,
			FlapWindowSec:      600,
			FlapCooldownSec:    300,
			ShedBelowFrac:      0.25,
		},
	})
}

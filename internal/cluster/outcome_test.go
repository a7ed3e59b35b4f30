package cluster_test

import (
	"fmt"
	"testing"

	"repro/internal/cluster"
	"repro/internal/dlmodel"
	"repro/internal/faults"
	"repro/internal/runtime"
	"repro/internal/sim"
)

// Under a fault storm (worker churn, container kills, periodic
// checkpoints) plus a rolling drain, every submitted job ends the run with
// exactly one outcome: finished on the worker its record names, or
// abandoned with no worker. Nothing is left queued or in flight, and no
// job was restarted past its retry budget.
func TestEveryJobHasOneOutcome(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) { checkOneOutcome(t, seed) })
	}
}

func checkOneOutcome(t *testing.T, seed int64) {
	e := sim.NewEngine()
	ws := make([]*cluster.Worker, 8)
	for i := range ws {
		ws[i], _ = cluster.NewSimWorker(fmt.Sprintf("w%d", i), e, 1.0)
		ws[i].SetMaxContainers(4)
	}
	m := cluster.NewManager(e, ws, nil)
	policy := cluster.RecoveryPolicy{
		CheckpointEverySec: 30,
		CheckpointCost:     cluster.MigrationCost{FreezeSec: 0.2, ThawSec: 0.2, BytesPerSec: 8 << 30},
		RetryBudget:        2,
		BackoffBaseSec:     0.5,
		BackoffCapSec:      8,
		FlapThreshold:      3,
		FlapWindowSec:      120,
		FlapCooldownSec:    60,
	}
	m.EnableSelfHealing(policy)

	abandoned := make(map[string]bool)
	m.OnAbandon(func(name string) { abandoned[name] = true })
	finishedOn := make(map[string]*cluster.Worker)
	finishes := make(map[string]int)
	for _, w := range ws {
		w.OnExit(func(c runtime.Container) {
			if c.Done {
				finishes[c.Name]++
				finishedOn[c.Name] = w
			}
		})
	}

	// Worker 0 is the drain target. Churn hits every worker, so the drain
	// checks that it meets a live node: draining a dead one moves nothing.
	plan := faults.Plan{
		Churn:    &faults.Churn{MTBFSec: 300, MTTRSec: 25},
		Kills:    &faults.Kills{MeanIntervalSec: 20},
		UntilSec: 900,
	}
	if _, err := faults.Attach(e, m, plan, seed, nil); err != nil {
		t.Fatal(err)
	}
	catalog := dlmodel.Catalog()
	for i := 0; i < 32; i++ {
		m.Submit(sim.Time(i*15), fmt.Sprintf("job-%02d", i), catalog[i%len(catalog)])
	}
	e.At(200, sim.PriorityState, "drain", func() {
		if ws[0].Failed() {
			t.Fatal("drain target is down at the drain")
		}
		m.Drain(ws[0], cluster.MigrationCost{FreezeSec: 0.5, ThawSec: 0.5, BytesPerSec: 1 << 30})
	})
	e.At(320, sim.PriorityState, "uncordon", func() {
		ws[0].Uncordon()
		m.Kick()
	})
	// The checkpoint scan re-arms forever; a bounded run far past the
	// last completion stands in for the runner's stop.
	e.Run(50000)

	if m.Queued() != 0 || m.InFlight() != 0 {
		t.Fatalf("run ended with %d queued and %d in flight", m.Queued(), m.InFlight())
	}
	if a := m.Availability(); a.Kills == 0 || a.Crashes == 0 || a.Checkpoints == 0 || m.Migrated() == 0 {
		t.Fatalf("storm drove %d kills, %d crashes, %d checkpoints, %d migrations; want each",
			a.Kills, a.Crashes, a.Checkpoints, m.Migrated())
	}
	finished := 0
	for _, r := range m.JobRecords() {
		if r.Attempts > policy.RetryBudget+1 {
			t.Errorf("%s restarted %d times, budget %d", r.Name, r.Attempts, policy.RetryBudget)
		}
		switch {
		case abandoned[r.Name]:
			if r.Worker != nil || finishes[r.Name] != 0 {
				t.Errorf("abandoned %s is on %s with %d finishes", r.Name, nameOf(r.Worker), finishes[r.Name])
			}
		case finishes[r.Name] == 1 && r.Worker != nil && r.Worker == finishedOn[r.Name]:
			finished++
		default:
			t.Errorf("%s has no single outcome: on %s, %d finishes", r.Name, nameOf(r.Worker), finishes[r.Name])
		}
	}
	if finished == 0 || m.Abandoned() == 0 {
		t.Fatalf("%d finished and %d abandoned: the storm should produce both outcomes", finished, m.Abandoned())
	}
	if got := finished + m.Abandoned(); m.Submitted() != got {
		t.Fatalf("Submitted() = %d, finished + abandoned = %d + %d", m.Submitted(), finished, m.Abandoned())
	}
}

// nameOf names a record's worker ("none" while it has none).
func nameOf(w *cluster.Worker) string {
	if w == nil {
		return "none"
	}
	return w.Name()
}

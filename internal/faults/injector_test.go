package faults

import (
	"reflect"
	"testing"

	"repro/internal/cluster"
	"repro/internal/dlmodel"
	"repro/internal/sim"
)

// twoWorkerCluster builds a bare engine + manager pair for injector tests.
func twoWorkerCluster(t *testing.T) (*sim.Engine, *cluster.Manager, []*cluster.Worker) {
	t.Helper()
	e := sim.NewEngine()
	w0, _ := cluster.NewSimWorker("w0", e, 1.0)
	w1, _ := cluster.NewSimWorker("w1", e, 1.0)
	ws := []*cluster.Worker{w0, w1}
	return e, cluster.NewManager(e, ws, nil), ws
}

func TestAttachRejectsInvalidPlans(t *testing.T) {
	e, m, _ := twoWorkerCluster(t)
	if _, err := Attach(e, m, Plan{Churn: &Churn{MTBFSec: -1, MTTRSec: 1}}, 1, nil); err == nil {
		t.Fatal("invalid plan attached")
	}
	// A degrading plan without the capacity knob has nowhere to apply the
	// factor — that must fail loudly at assembly, not no-op silently.
	degrading := Plan{Degrade: &Degrade{MeanIntervalSec: 10, MeanDurationSec: 5}}
	if _, err := Attach(e, m, degrading, 1, nil); err == nil {
		t.Fatal("degrading plan without setCapacity attached")
	}
	scripted := Plan{Script: []ScriptedFault{{At: 1, Kind: KindDegrade, Worker: 0, Factor: 0.5}}}
	if _, err := Attach(e, m, scripted, 1, nil); err == nil {
		t.Fatal("scripted degrade without setCapacity attached")
	}
}

// A scripted drill runs exactly as written: the crash downs the worker,
// the repair revives it, the kill costs one container, and the manager
// recovers everything — the precision harness the migration drills build on.
func TestScriptedDrill(t *testing.T) {
	e, m, ws := twoWorkerCluster(t)
	plan := Plan{Script: []ScriptedFault{
		{At: 30, Kind: KindCrash, Worker: 0},
		{At: 60, Kind: KindRepair, Worker: 0},
		{At: 80, Kind: KindKill, Job: "a"},
	}}
	if _, err := Attach(e, m, plan, 1, nil); err != nil {
		t.Fatal(err)
	}
	m.Submit(0, "a", dlmodel.VAEPyTorch())
	m.Submit(0, "b", dlmodel.VAEPyTorch())
	e.At(45, sim.PriorityMetric, "probe-down", func() {
		if !ws[0].Failed() {
			t.Error("w0 not failed between crash and repair")
		}
	})
	e.At(70, sim.PriorityMetric, "probe-up", func() {
		if ws[0].Failed() {
			t.Error("w0 still failed after scripted repair")
		}
	})
	e.RunAll()
	a := m.Availability()
	if a.Crashes != 1 || a.Repairs != 1 || a.Kills != 1 {
		t.Fatalf("ledger crashes/repairs/kills = %d/%d/%d, want 1/1/1",
			a.Crashes, a.Repairs, a.Kills)
	}
	// Exactly-once completion despite the storm.
	for _, name := range []string{"a", "b"} {
		done := 0
		for _, w := range ws {
			for _, c := range w.PS(true) {
				if c.Name == name && c.Done {
					done++
				}
			}
		}
		if done != 1 {
			t.Fatalf("job %s finished %d times, want 1", name, done)
		}
	}
}

// churnTrace runs a churn-only plan to quiescence and returns the crash
// times observed per worker.
func churnTrace(t *testing.T, seed int64) map[string][]float64 {
	t.Helper()
	e, m, ws := twoWorkerCluster(t)
	trace := make(map[string][]float64)
	for _, w := range ws {
		w := w
		w.OnFail(func() { trace[w.Name()] = append(trace[w.Name()], float64(e.Now())) })
	}
	plan := Plan{Churn: &Churn{MTBFSec: 40, MTTRSec: 4}, UntilSec: 400}
	if _, err := Attach(e, m, plan, seed, nil); err != nil {
		t.Fatal(err)
	}
	e.RunAll()
	return trace
}

// The fault trace is a pure function of (plan, seed): same seed, same
// crash times; a different seed draws a different storm.
func TestChurnSeedDeterminism(t *testing.T) {
	a := churnTrace(t, 7)
	b := churnTrace(t, 7)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different traces:\n%v\nvs\n%v", a, b)
	}
	if len(a) == 0 {
		t.Fatal("400s at MTBF 40 produced no crashes")
	}
	c := churnTrace(t, 8)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical fault traces")
	}
}

// UntilSec stops initiating faults but lets pending repairs complete: the
// cluster always heals, so no worker is left down at quiescence.
func TestUntilBoundHeals(t *testing.T) {
	e, m, ws := twoWorkerCluster(t)
	plan := Plan{Churn: &Churn{MTBFSec: 20, MTTRSec: 5}, UntilSec: 200}
	if _, err := Attach(e, m, plan, 3, nil); err != nil {
		t.Fatal(err)
	}
	e.RunAll()
	if now := float64(e.Now()); now <= 0 {
		t.Fatal("churn injected nothing")
	}
	for _, w := range ws {
		if w.Failed() {
			t.Fatalf("%s left failed after quiescence — a repair chain was dropped", w.Name())
		}
	}
	a := m.Availability()
	if a.Crashes != a.Repairs {
		t.Fatalf("crashes %d != repairs %d after heal-out", a.Crashes, a.Repairs)
	}
}

// Degraded-node episodes drop capacity through the wired knob and restore
// it afterwards; the ledger counts each episode once.
func TestDegradeEpisodes(t *testing.T) {
	e, m, _ := twoWorkerCluster(t)
	factors := map[int]float64{0: 1, 1: 1}
	set := func(worker int, factor float64) { factors[worker] = factor }
	plan := Plan{
		Degrade:  &Degrade{MeanIntervalSec: 20, MeanDurationSec: 10},
		UntilSec: 300,
	}
	if _, err := Attach(e, m, plan, 5, set); err != nil {
		t.Fatal(err)
	}
	sawDegraded := false
	probe := func() {
		for _, f := range factors {
			if f != 1 {
				sawDegraded = true
			}
		}
	}
	for at := 10; at <= 300; at += 10 {
		e.At(sim.Time(at), sim.PriorityMetric, "probe", probe)
	}
	e.RunAll()
	if !sawDegraded {
		t.Fatal("no probe ever observed a degraded factor")
	}
	if m.Availability().Degradations == 0 {
		t.Fatal("ledger recorded no degradations")
	}
	for i, f := range factors {
		if f != 1 {
			t.Fatalf("worker %d left degraded (factor %g) after quiescence", i, f)
		}
	}
}

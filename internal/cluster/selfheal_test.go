package cluster

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/dlmodel"
	"repro/internal/sim"
)

func TestRecoveryPolicyValidate(t *testing.T) {
	good := RecoveryPolicy{
		CheckpointEverySec: 30, RetryBudget: 5, BackoffBaseSec: 1, BackoffCapSec: 8,
		FlapThreshold: 3, FlapWindowSec: 120, FlapCooldownSec: 60, ShedBelowFrac: 0.3,
	}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid policy rejected: %v", err)
	}
	if err := (RecoveryPolicy{}).Validate(); err != nil {
		t.Fatalf("zero policy rejected: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*RecoveryPolicy)
	}{
		{"NaN interval", func(p *RecoveryPolicy) { p.CheckpointEverySec = math.NaN() }},
		{"negative backoff", func(p *RecoveryPolicy) { p.BackoffBaseSec = -1 }},
		{"negative budget", func(p *RecoveryPolicy) { p.RetryBudget = -1 }},
		{"flap without window", func(p *RecoveryPolicy) { p.FlapWindowSec = 0 }},
		{"shed above one", func(p *RecoveryPolicy) { p.ShedBelowFrac = 1.5 }},
		{"inf cooldown", func(p *RecoveryPolicy) { p.FlapCooldownSec = math.Inf(1) }},
	}
	for _, c := range cases {
		p := good
		c.mut(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func TestBackoffSchedule(t *testing.T) {
	p := RecoveryPolicy{BackoffBaseSec: 1, BackoffCapSec: 4}
	want := []float64{1, 2, 4, 4, 4}
	for i, w := range want {
		if got := p.backoff(i + 1); got != w {
			t.Errorf("backoff(%d) = %g, want %g", i+1, got, w)
		}
	}
	if got := (RecoveryPolicy{}).backoff(3); got != 0 {
		t.Errorf("zero-base backoff = %g, want 0", got)
	}
	uncapped := RecoveryPolicy{BackoffBaseSec: 1}
	if got := uncapped.backoff(5); got != 16 {
		t.Errorf("uncapped backoff(5) = %g, want 16", got)
	}
}

func TestEnableSelfHealingGuards(t *testing.T) {
	e := sim.NewEngine()
	w, _ := NewSimWorker("w0", e, 1.0)
	m := NewManager(e, []*Worker{w}, nil)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("invalid policy did not panic")
			}
		}()
		m.EnableSelfHealing(RecoveryPolicy{RetryBudget: -1})
	}()
	m.EnableSelfHealing(RecoveryPolicy{RetryBudget: 3})
	if m.recovery.RetryBudget != 3 {
		t.Fatal("policy not installed")
	}
	defer func() {
		if recover() == nil {
			t.Error("double enable did not panic")
		}
	}()
	m.EnableSelfHealing(RecoveryPolicy{})
}

// Periodic checkpoints make a mid-run crash resume from the last snapshot
// instead of zero: the restart is classified RestartsFromCheckpoint and
// the wasted work is bounded by the scan interval, not the lost progress.
func TestPeriodicCheckpointResumesAfterCrash(t *testing.T) {
	e := sim.NewEngine()
	w0, _ := NewSimWorker("w0", e, 1.0)
	w1, _ := NewSimWorker("w1", e, 1.0)
	m := NewManager(e, []*Worker{w0, w1}, nil)
	m.EnableSelfHealing(RecoveryPolicy{
		CheckpointEverySec: 10,
		CheckpointCost:     MigrationCost{FreezeSec: 0.1, ThawSec: 0.1, BytesPerSec: 1 << 50},
	})
	m.Submit(0, "a", dlmodel.VAEPyTorch()) // 260 units of work
	e.Run(1)
	wa := m.WorkerOf("a")
	if wa == nil {
		t.Fatal("job not placed")
	}
	e.At(35, sim.PriorityState, "crash", func() { wa.Fail() })
	// The scan chain re-arms forever (the runner's engine.Stop cuts it);
	// a bounded run far past the job's completion stands in for that here.
	e.Run(2000)

	a := m.Availability()
	if a.Checkpoints < 2 {
		t.Fatalf("Checkpoints = %d, want >= 2 (scans at 10, 20, 30)", a.Checkpoints)
	}
	if a.RestartsFromCheckpoint != 1 || a.RestartsFromScratch != 0 {
		t.Fatalf("restarts ckpt/scratch = %d/%d, want 1/0",
			a.RestartsFromCheckpoint, a.RestartsFromScratch)
	}
	// At most one scan interval of progress (plus freeze stalls) dies with
	// the crash.
	if a.WastedWorkSec <= 0 || a.WastedWorkSec > 12 {
		t.Fatalf("WastedWorkSec = %g, want in (0, 12]", a.WastedWorkSec)
	}
	survivor := m.WorkerOf("a")
	if survivor == nil || survivor == wa {
		t.Fatalf("job not rescheduled off the failed worker (on %v)", survivor)
	}
	done := 0
	for _, c := range survivor.PS(true) {
		if c.Name == "a" && c.Done {
			done++
		}
	}
	if done != 1 {
		t.Fatalf("job finished %d times on the survivor, want exactly 1", done)
	}
}

// A job that exhausts its retry budget is abandoned exactly once: the
// OnAbandon hook fires, the ledger records it, and the job never finishes.
func TestRetryBudgetAbandons(t *testing.T) {
	e := sim.NewEngine()
	w, _ := NewSimWorker("w0", e, 1.0)
	m := NewManager(e, []*Worker{w}, nil)
	m.EnableSelfHealing(RecoveryPolicy{RetryBudget: 2, BackoffBaseSec: 1, BackoffCapSec: 4})
	var abandoned []string
	m.OnAbandon(func(job string) { abandoned = append(abandoned, job) })
	m.Submit(0, "a", dlmodel.VAEPyTorch())
	for _, at := range []float64{10, 20, 30} {
		at := at
		e.At(sim.Time(at), sim.PriorityState, "kill", func() {
			if err := m.FailContainer("a"); err != nil {
				t.Errorf("kill at %g: %v", at, err)
			}
		})
	}
	e.RunAll()
	if m.Abandoned() != 1 || len(abandoned) != 1 || abandoned[0] != "a" {
		t.Fatalf("abandoned = %d / hooks %v, want exactly one for a", m.Abandoned(), abandoned)
	}
	a := m.Availability()
	if a.Kills != 3 || a.Abandoned != 1 {
		t.Fatalf("ledger kills=%d abandoned=%d, want 3/1", a.Kills, a.Abandoned)
	}
	for _, c := range w.PS(true) {
		if c.Name == "a" && c.Done {
			t.Fatal("abandoned job finished anyway")
		}
	}
	// The second kill found the job re-placed after its backoff: attempts
	// were consumed one per loss, not all at once.
	if a.RestartsFromScratch != 3 {
		t.Fatalf("RestartsFromScratch = %d, want 3 losses", a.RestartsFromScratch)
	}
}

// Exponential backoff actually delays the restart: with a large base the
// job is still off-cluster right after the kill and back on after the
// delay elapses.
func TestBackoffDelaysRestart(t *testing.T) {
	e := sim.NewEngine()
	w, _ := NewSimWorker("w0", e, 1.0)
	m := NewManager(e, []*Worker{w}, nil)
	m.EnableSelfHealing(RecoveryPolicy{BackoffBaseSec: 20})
	m.Submit(0, "a", dlmodel.VAEPyTorch())
	e.At(10, sim.PriorityState, "kill", func() { _ = m.FailContainer("a") })
	e.At(15, sim.PriorityMetric, "probe-down", func() {
		if m.WorkerOf("a") != nil {
			t.Error("job back before its backoff elapsed")
		}
	})
	e.At(35, sim.PriorityMetric, "probe-up", func() {
		if m.WorkerOf("a") == nil {
			t.Error("job still absent after backoff elapsed")
		}
	})
	e.RunAll()
}

// Crossing the flap threshold cordons the worker; the cooldown reopens it.
func TestFlapDetectionCordons(t *testing.T) {
	e := sim.NewEngine()
	w0, _ := NewSimWorker("w0", e, 1.0)
	w1, _ := NewSimWorker("w1", e, 1.0)
	m := NewManager(e, []*Worker{w0, w1}, nil)
	m.EnableSelfHealing(RecoveryPolicy{FlapThreshold: 2, FlapWindowSec: 100, FlapCooldownSec: 50})
	m.Submit(0, "a", dlmodel.VAEPyTorch())
	m.Submit(0, "b", dlmodel.VAEPyTorch())
	e.At(10, sim.PriorityState, "crash1", func() { w0.Fail() })
	e.At(12, sim.PriorityState, "repair1", func() { w0.Repair() })
	e.At(20, sim.PriorityState, "crash2", func() { w0.Fail() })
	e.At(22, sim.PriorityState, "repair2", func() { w0.Repair() })
	e.At(25, sim.PriorityMetric, "probe-cordoned", func() {
		if !w0.Cordoned() {
			t.Error("worker not cordoned after second crash in window")
		}
	})
	e.At(75, sim.PriorityMetric, "probe-reopened", func() {
		if w0.Cordoned() {
			t.Error("worker still cordoned after cooldown")
		}
	})
	e.RunAll()
	if got := m.Availability().Cordons; got != 1 {
		t.Fatalf("Cordons = %d, want 1", got)
	}
}

// Below the surviving-capacity watermark fresh admissions are shed into
// the queue; a repair lifts the watermark and drains it.
func TestAdmissionSheddingBelowWatermark(t *testing.T) {
	e := sim.NewEngine()
	w0, _ := NewSimWorker("w0", e, 1.0)
	w1, _ := NewSimWorker("w1", e, 1.0)
	m := NewManager(e, []*Worker{w0, w1}, nil)
	m.EnableSelfHealing(RecoveryPolicy{ShedBelowFrac: 0.6})
	w0.Fail() // alive capacity 1/2 = 0.5 < 0.6
	m.Submit(5, "a", dlmodel.MNISTTensorFlow())
	e.Run(6)
	if m.Queued() != 1 {
		t.Fatalf("queued = %d, want the shed admission", m.Queued())
	}
	if got := m.Availability().Shed; got != 1 {
		t.Fatalf("Shed = %d, want 1", got)
	}
	e.At(10, sim.PriorityState, "repair", func() { w0.Repair() })
	e.RunAll()
	if m.WorkerOf("a") == nil {
		t.Fatal("shed job never admitted after repair")
	}
}

func TestFailContainerErrors(t *testing.T) {
	e := sim.NewEngine()
	w, _ := NewSimWorker("w0", e, 1.0)
	m := NewManager(e, []*Worker{w}, nil)
	if err := m.FailContainer("ghost"); err == nil || !strings.Contains(err.Error(), "unknown job") {
		t.Fatalf("unknown job: err = %v", err)
	}
	m.Submit(0, "a", dlmodel.MNISTTensorFlow())
	if err := m.FailContainer("a"); err == nil {
		t.Fatal("kill before placement accepted")
	}
	e.RunAll() // job finishes
	if err := m.FailContainer("a"); err == nil {
		t.Fatal("kill after completion accepted")
	}
}

// The availability ledger's arithmetic: capacity-weighted downtime,
// Finalize closing open intervals, and the delivered-capacity fraction.
func TestAvailabilityLedger(t *testing.T) {
	e := sim.NewEngine()
	w0, _ := NewSimWorker("w0", e, 2.0)
	w1, _ := NewSimWorker("w1", e, 2.0)
	a := newAvailability([]*Worker{w0, w1})
	if a.Faulted() {
		t.Fatal("fresh ledger claims fault activity")
	}
	a.workerDown(w0, 10)
	a.workerUp(w0, 30) // 2.0 capacity * 20s
	a.workerDown(w1, 50)
	a.Finalize(100) // w1 still down: 2.0 * 50s
	if a.WorkerDownSec != 2*20+2*50 {
		t.Fatalf("WorkerDownSec = %g, want 140", a.WorkerDownSec)
	}
	want := 1 - 140.0/(4*100)
	if math.Abs(a.Frac()-want) > 1e-12 {
		t.Fatalf("Frac = %g, want %g", a.Frac(), want)
	}
	if a.Crashes != 2 || a.Repairs != 1 {
		t.Fatalf("crashes/repairs = %d/%d, want 2/1", a.Crashes, a.Repairs)
	}
	if !a.Faulted() {
		t.Fatal("faulted ledger claims clean")
	}
}

// Finalize closes the open downtime intervals in worker declaration
// order: ledgers rebuilt from the same crashes sum to one bit pattern,
// the left-to-right sum over the workers.
func TestFinalizeOrderIndependent(t *testing.T) {
	caps := []float64{0.1, 0.7, 1.3, 2.9, 0.3, 5.1, 0.9, 3.7}
	downAt := []float64{1.1, 2.3, 3.7, 4.1, 5.9, 6.7, 7.3, 8.9}
	const end = 1000.3
	want := 0.0
	for i := range caps {
		want += caps[i] * (end - downAt[i])
	}
	for run := 0; run < 50; run++ {
		e := sim.NewEngine()
		ws := make([]*Worker, len(caps))
		for i := range ws {
			ws[i], _ = NewSimWorker(fmt.Sprintf("w%d", i), e, caps[i])
			e.At(sim.Time(downAt[i]), sim.PriorityState, "crash", ws[i].Fail)
		}
		m := NewManager(e, ws, nil)
		e.RunAll()
		a := m.Availability()
		a.Finalize(end)
		if math.Float64bits(a.WorkerDownSec) != math.Float64bits(want) {
			t.Fatalf("run %d: WorkerDownSec = %v, want %v (worker order)", run, a.WorkerDownSec, want)
		}
		// A finalized ledger outlives the run inside Result; it must not
		// pin the simulated cluster.
		if a.workers != nil {
			t.Fatalf("run %d: finalized ledger still holds the workers", run)
		}
	}
}

func TestAvailabilityMTTR(t *testing.T) {
	e := sim.NewEngine()
	w, _ := NewSimWorker("w0", e, 1.0)
	a := newAvailability([]*Worker{w})
	if !math.IsNaN(a.MTTRQuantile(0.5)) {
		t.Fatal("empty MTTR sketch did not report NaN")
	}
	ja, jb := &job{name: "a", resumeWork: 40}, &job{name: "b"}
	a.jobLost(ja, 10, 50)
	a.jobPlaced(ja, 14)
	a.jobLost(jb, 20, 30)
	a.jobPlaced(jb, 26)
	if a.MTTRCount() != 2 {
		t.Fatalf("MTTRCount = %d, want 2", a.MTTRCount())
	}
	// Samples are 4 and 6; the sketch interpolates, so pin the envelope.
	if p := a.MTTRQuantile(0.99); p < 4 || p > 6.5 {
		t.Fatalf("MTTR p99 = %g, want within [4, 6.5]", p)
	}
	if a.RestartsFromCheckpoint != 1 || a.RestartsFromScratch != 1 {
		t.Fatalf("restart provenance = %d/%d, want 1/1",
			a.RestartsFromCheckpoint, a.RestartsFromScratch)
	}
	if a.WastedWorkSec != 10+30 {
		t.Fatalf("WastedWorkSec = %g, want 40", a.WastedWorkSec)
	}
	// A placement with no open loss interval is not an MTTR sample.
	a.jobPlaced(&job{name: "fresh"}, 30)
	if a.MTTRCount() != 2 {
		t.Fatal("placement without loss fed the MTTR sketch")
	}
}

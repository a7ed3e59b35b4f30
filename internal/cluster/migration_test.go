package cluster

import (
	"math"
	"strings"
	"testing"

	"repro/internal/dlmodel"
	"repro/internal/runtime"
	"repro/internal/sim"
)

// freeMove is a zero-latency cost model for tests that do not exercise
// the delay itself.
var freeMove = MigrationCost{}

// twoWorkerManager builds a 2-worker cluster with one job running on w0.
func twoWorkerManager(t *testing.T) (*sim.Engine, *Manager, *Worker, *Worker) {
	t.Helper()
	e := sim.NewEngine()
	w0, _ := NewSimWorker("w0", e, 1.0)
	w1, _ := NewSimWorker("w1", e, 1.0)
	// FirstFit pins the job to w0 so the migration direction is known.
	m := NewManager(e, []*Worker{w0, w1}, FirstFit)
	m.Submit(0, "job", dlmodel.MNISTPyTorch())
	e.Run(1)
	if m.WorkerOf("job") != w0 {
		t.Fatal("setup: job not on w0")
	}
	return e, m, w0, w1
}

func TestMigrationCostDelay(t *testing.T) {
	c := MigrationCost{FreezeSec: 1, ThawSec: 2, BytesPerSec: 100}
	if got := c.Delay(50); got != 3.5 {
		t.Fatalf("Delay(50) = %g, want 3.5", got)
	}
	// Unmodelled bandwidth: fixed costs only.
	if got := (MigrationCost{FreezeSec: 1, ThawSec: 2}).Delay(1 << 30); got != 3 {
		t.Fatalf("Delay without bandwidth = %g, want 3", got)
	}
	if err := (MigrationCost{FreezeSec: -1}).Validate(); err == nil {
		t.Fatal("negative freeze cost accepted")
	}
}

// Every cost component must be a finite non-negative number: a NaN or
// infinite delay would schedule the thaw at NaN or never. The recovery
// policy's CheckpointCost goes through the same check.
func TestMigrationCostValidate(t *testing.T) {
	for _, ok := range []MigrationCost{{}, DefaultMigrationCost(), {FreezeSec: 1, ThawSec: 2, BytesPerSec: 3}} {
		if err := ok.Validate(); err != nil {
			t.Errorf("%+v rejected: %v", ok, err)
		}
	}
	cases := []struct {
		field string
		cost  MigrationCost
	}{
		{"FreezeSec", MigrationCost{FreezeSec: math.NaN()}},
		{"FreezeSec", MigrationCost{FreezeSec: math.Inf(1)}},
		{"ThawSec", MigrationCost{ThawSec: math.Inf(-1)}},
		{"ThawSec", MigrationCost{ThawSec: -0.5}},
		{"BytesPerSec", MigrationCost{BytesPerSec: math.NaN()}},
		{"BytesPerSec", MigrationCost{BytesPerSec: math.Inf(1)}},
	}
	for _, c := range cases {
		err := c.cost.Validate()
		if err == nil || !strings.Contains(err.Error(), c.field) ||
			!strings.Contains(err.Error(), "must be a finite non-negative number") {
			t.Errorf("%+v: error %v, want one naming %s", c.cost, err, c.field)
		}
		if err := (RecoveryPolicy{CheckpointCost: c.cost}).Validate(); err == nil {
			t.Errorf("recovery policy with CheckpointCost %+v accepted", c.cost)
		}
	}
}

// A migration moves the job to the destination after the cost delay, the
// job finishes exactly once, and in-flight time delivers no work.
func TestMigrateMovesJob(t *testing.T) {
	e, m, _, w1 := twoWorkerManager(t)
	cost := MigrationCost{FreezeSec: 1, ThawSec: 1} // 2s in flight
	var ge = []float64{0.5, 0.25}
	places := 0
	m.OnPlace(func(string, *Worker, runtime.Container) { places++ })
	migrations := 0
	m.OnMigrate(func(name string, w *Worker, c runtime.Container) {
		migrations++
		if w != w1 {
			t.Errorf("thawed on %s, want w1", w.Name())
		}
		if math.Abs(c.Work-10) > 1e-9 {
			t.Errorf("thawed with %g work, want 10", c.Work)
		}
	})
	e.At(10, sim.PriorityState, "migrate", func() {
		if err := m.Migrate(MigrationSpec{Job: "job", Dst: w1, Cost: cost, GEHistory: ge}); err != nil {
			t.Errorf("Migrate: %v", err)
		}
		if m.InFlight() != 1 || m.WorkerOf("job") != nil {
			t.Errorf("in-flight accounting: inflight=%d worker=%v", m.InFlight(), m.WorkerOf("job"))
		}
	})
	e.RunAll()
	if migrations != 1 || places != 0 {
		t.Fatalf("thaw fired OnMigrate %d times and OnPlace %d times, want 1/0",
			migrations, places)
	}
	if m.Migrated() != 1 || m.InFlight() != 0 {
		t.Fatalf("Migrated=%d InFlight=%d", m.Migrated(), m.InFlight())
	}
	if m.WorkerOf("job") != w1 {
		t.Fatal("job not placed on w1 after thaw")
	}
	// 10s of work before the freeze, 2s frozen, remainder on w1.
	c, err := w1.Lookup("job")
	if err != nil {
		t.Fatal(err)
	}
	want := 12 + (dlmodel.MNISTPyTorch().TotalWork - 10)
	if math.Abs(c.FinishedAt-want) > 1e-6 {
		t.Fatalf("finished at %v, want %g (freeze window must deliver no work)",
			c.FinishedAt, want)
	}
	if !c.Done {
		t.Fatal("job did not finish")
	}
}

// The source worker failing while the job is in flight must not trigger
// a second recovery: the job's state already left the node, so it is
// restored exactly once, with its checkpointed progress.
func TestSourceFailureDuringMigration(t *testing.T) {
	e, m, w0, w1 := twoWorkerManager(t)
	cost := MigrationCost{FreezeSec: 2, ThawSec: 2} // in flight 10..14
	e.At(10, sim.PriorityState, "migrate", func() {
		if err := m.Migrate(MigrationSpec{Job: "job", Dst: w1, Cost: cost}); err != nil {
			t.Errorf("Migrate: %v", err)
		}
	})
	e.At(12, sim.PriorityState, "crash", w0.Fail)
	lands := 0
	m.OnPlace(func(string, *Worker, runtime.Container) { lands++ })
	m.OnMigrate(func(string, *Worker, runtime.Container) { lands++ })
	e.RunAll()
	if lands != 1 {
		t.Fatalf("job landed %d times after source crash, want exactly 1 (the thaw)", lands)
	}
	if m.Requeued() != 0 {
		t.Fatalf("failure recovery requeued %d in-flight jobs, want 0", m.Requeued())
	}
	if m.WorkerOf("job") != w1 {
		t.Fatal("job not on w1")
	}
	c, err := w1.Lookup("job")
	if err != nil {
		t.Fatal(err)
	}
	// Progress preserved: 10s of pre-freeze work survived the crash.
	want := 14 + (dlmodel.MNISTPyTorch().TotalWork - 10)
	if math.Abs(c.FinishedAt-want) > 1e-6 {
		t.Fatalf("finished at %v, want %g", c.FinishedAt, want)
	}
}

// The destination failing while the job is in flight reroutes the thaw
// through the placement function — the job lands exactly once, elsewhere.
func TestDestinationFailureDuringMigration(t *testing.T) {
	e := sim.NewEngine()
	w0, _ := NewSimWorker("w0", e, 1.0)
	w1, _ := NewSimWorker("w1", e, 1.0)
	w2, _ := NewSimWorker("w2", e, 1.0)
	m := NewManager(e, []*Worker{w0, w1, w2}, FirstFit)
	m.Submit(0, "job", dlmodel.MNISTPyTorch())
	e.Run(1)

	cost := MigrationCost{FreezeSec: 2, ThawSec: 2}
	e.At(10, sim.PriorityState, "migrate", func() {
		if err := m.Migrate(MigrationSpec{Job: "job", Dst: w1, Cost: cost}); err != nil {
			t.Errorf("Migrate: %v", err)
		}
	})
	e.At(12, sim.PriorityState, "crash", w1.Fail)
	lands := 0
	m.OnPlace(func(string, *Worker, runtime.Container) { lands++ })
	m.OnMigrate(func(string, *Worker, runtime.Container) { lands++ })
	e.RunAll()
	if lands != 1 {
		t.Fatalf("job landed %d times, want 1", lands)
	}
	// FirstFit falls back to w0 (alive, uncordoned).
	if got := m.WorkerOf("job"); got != w0 {
		t.Fatalf("job on %v, want fallback to w0", got)
	}
	if m.Migrated() != 1 {
		t.Fatalf("Migrated = %d, want 1", m.Migrated())
	}
	c, err := w0.Lookup("job")
	if err != nil {
		t.Fatal(err)
	}
	if !c.Done {
		t.Fatal("job did not finish after rerouted thaw")
	}
}

// With every worker unavailable at thaw time the job joins the admission
// queue with its progress intact and is admitted when capacity returns.
func TestThawQueuesWhenNowhereToLand(t *testing.T) {
	e, m, w0, w1 := twoWorkerManager(t)
	cost := MigrationCost{FreezeSec: 1, ThawSec: 1}
	e.At(10, sim.PriorityState, "migrate", func() {
		if err := m.Migrate(MigrationSpec{Job: "job", Dst: w1, Cost: cost}); err != nil {
			t.Errorf("Migrate: %v", err)
		}
	})
	e.At(11, sim.PriorityState, "cordon-all", func() {
		w0.Cordon()
		w1.Cordon()
	})
	e.Run(20)
	if m.Queued() != 1 {
		t.Fatalf("Queued = %d, want the stranded job", m.Queued())
	}
	if m.Migrated() != 1 {
		t.Fatalf("Migrated = %d (a queued thaw still completed the move)", m.Migrated())
	}
	// Capacity returns through the uncordon path (no exit will ever fire
	// here — nothing is running anywhere), so Kick must revive the queue.
	e.At(30, sim.PriorityState, "uncordon", func() {
		w1.Uncordon()
		m.Kick()
	})
	e.RunAll()
	c, err := w1.Lookup("job")
	if err != nil {
		t.Fatal(err)
	}
	if !c.Done {
		t.Fatal("queued job never finished")
	}
	// Work preserved across the queue round trip: finish = 30 + remaining.
	want := 30 + (dlmodel.MNISTPyTorch().TotalWork - 10)
	if math.Abs(c.FinishedAt-want) > 1e-6 {
		t.Fatalf("finished at %v, want %g", c.FinishedAt, want)
	}
}

// Migrate validates its inputs and leaves state untouched on rejection.
func TestMigrateValidation(t *testing.T) {
	e, m, w0, w1 := twoWorkerManager(t)
	e.At(5, sim.PriorityState, "checks", func() {
		if err := m.Migrate(MigrationSpec{Job: "nope", Dst: w1}); err == nil ||
			!strings.Contains(err.Error(), "unknown job") {
			t.Errorf("unknown job: %v", err)
		}
		if err := m.Migrate(MigrationSpec{Job: "job", Dst: w0}); err == nil {
			t.Error("migration onto the source accepted")
		}
		if err := m.Migrate(MigrationSpec{Job: "job", Dst: w1,
			Cost: MigrationCost{ThawSec: -1}}); err == nil {
			t.Error("negative cost accepted")
		}
		w1.Fail()
		if err := m.Migrate(MigrationSpec{Job: "job", Dst: w1}); err == nil {
			t.Error("failed destination accepted")
		}
		w1.Repair()
		if err := m.Migrate(MigrationSpec{Job: "job", Dst: w1, Cost: freeMove}); err != nil {
			t.Errorf("first migrate: %v", err)
		}
		// A second migrate while the job is in flight is refused: the job
		// is placed nowhere until the thaw lands.
		if err := m.Migrate(MigrationSpec{Job: "job", Dst: w1, Cost: freeMove}); err == nil ||
			!strings.Contains(err.Error(), "not placed") {
			t.Errorf("double migrate: %v", err)
		}
	})
	e.At(6, sim.PriorityState, "settled", func() {
		if m.WorkerOf("job") != w1 {
			t.Error("job did not land on w1")
		}
	})
	e.RunAll()
}

// Drain cordons the node, moves every running job off it, and the cluster
// finishes everything; uncordoning reopens the node.
func TestDrainMovesEverythingOff(t *testing.T) {
	e := sim.NewEngine()
	w0, _ := NewSimWorker("w0", e, 1.0)
	w1, _ := NewSimWorker("w1", e, 1.0)
	m := NewManager(e, []*Worker{w0, w1}, FirstFit)
	m.Submit(0, "a", dlmodel.MNISTPyTorch())
	m.Submit(0, "b", dlmodel.VAEPyTorch())
	e.Run(1)
	if w0.RunningCount() != 2 {
		t.Fatalf("setup: %d jobs on w0, want 2", w0.RunningCount())
	}
	started := 0
	e.At(10, sim.PriorityState, "drain", func() {
		started = m.Drain(w0, freeMove)
	})
	e.At(10.5, sim.PriorityState, "check", func() {
		if !w0.Cordoned() {
			t.Error("drained worker not cordoned")
		}
		if w0.RunningCount() != 0 {
			t.Errorf("%d jobs still on w0 after drain", w0.RunningCount())
		}
		if w1.RunningCount() != 2 {
			t.Errorf("%d jobs on w1, want 2", w1.RunningCount())
		}
	})
	e.RunAll()
	if started != 2 {
		t.Fatalf("Drain started %d migrations, want 2", started)
	}
	if m.Migrated() != 2 {
		t.Fatalf("Migrated = %d, want 2", m.Migrated())
	}
	for _, name := range []string{"a", "b"} {
		c, err := w1.Lookup(name)
		if err != nil {
			t.Fatalf("job %s not on w1: %v", name, err)
		}
		if !c.Done {
			t.Fatalf("job %s unfinished", name)
		}
	}
}

// A job can migrate back onto a failed-then-repaired worker: Repair
// clears the exited husks the crash left behind, so the returning job's
// name is free again instead of colliding in the daemon's name index.
func TestMigrateBackAfterRepair(t *testing.T) {
	e, m, w0, w1 := twoWorkerManager(t)
	e.At(10, sim.PriorityState, "crash", w0.Fail)
	e.At(20, sim.PriorityState, "repair", func() {
		w0.Repair()
		if got := len(w0.PS(true)); got != 0 {
			t.Errorf("repaired worker still holds %d husks", got)
		}
	})
	e.At(30, sim.PriorityState, "migrate-back", func() {
		// The crash re-placed the job on w1; send it home to w0.
		if m.WorkerOf("job") != w1 {
			t.Error("setup: job not recovered on w1")
			return
		}
		if err := m.Migrate(MigrationSpec{Job: "job", Dst: w0, Cost: freeMove}); err != nil {
			t.Errorf("migrate back onto repaired worker: %v", err)
		}
	})
	e.RunAll()
	if m.WorkerOf("job") != w0 {
		t.Fatal("job did not land back on the repaired worker")
	}
	c, err := w0.Lookup("job")
	if err != nil {
		t.Fatal(err)
	}
	if !c.Done {
		t.Fatal("job did not finish on the repaired worker")
	}
}

// restoreSpy records the checkpoint a worker is asked to restore.
type restoreSpy struct {
	runtime.Runtime
	got *runtime.Checkpoint
}

func (s *restoreSpy) Restore(cp *runtime.Checkpoint) (runtime.Container, error) {
	s.got = cp
	return s.Runtime.Restore(cp)
}

// The checkpoint a migration produces carries the GE history it was
// given — the signal travels with the container.
func TestMigrationAttachesGEHistory(t *testing.T) {
	e, m, _, w1 := twoWorkerManager(t)
	spy := &restoreSpy{Runtime: w1.Runtime}
	w1.Runtime = spy
	ge := []float64{0.9, 0.4, 0.1}
	e.At(5, sim.PriorityState, "migrate", func() {
		if err := m.Migrate(MigrationSpec{Job: "job", Dst: w1,
			Cost: MigrationCost{FreezeSec: 1}, GEHistory: ge}); err != nil {
			t.Errorf("Migrate: %v", err)
		}
	})
	e.RunAll()
	cp := spy.got
	if cp == nil {
		t.Fatal("no checkpoint thawed on the destination")
	}
	if len(cp.GEHistory) != 3 || cp.GEHistory[2] != 0.1 {
		t.Errorf("GE history = %v", cp.GEHistory)
	}
}

package simdocker

import (
	"errors"
	"math"
	"testing"

	"repro/internal/dlmodel"
	"repro/internal/runtime"
	"repro/internal/sim"
)

// A checkpoint captures name, limit, work and footprint; restoring it on
// another daemon resumes the workload with no work lost or repeated.
func TestCheckpointRestoreAcrossDaemons(t *testing.T) {
	e := sim.NewEngine()
	src := NewDaemon(e, 1.0)
	src.SetIDPrefix("src")
	dst := NewDaemon(e, 1.0)
	dst.SetIDPrefix("dst")

	job := dlmodel.NewJob("mnist", dlmodel.MNISTTensorFlow())
	c, err := src.Run(RunSpec{Name: "mnist", Workload: job, CPULimit: 0.5})
	if err != nil {
		t.Fatal(err)
	}

	var cp *runtime.Checkpoint
	e.At(10, sim.PriorityState, "freeze", func() {
		var err error
		cp, err = src.Checkpoint(c.ID())
		if err != nil {
			t.Errorf("Checkpoint: %v", err)
		}
	})
	e.Run(10)
	if cp == nil {
		t.Fatal("no checkpoint taken")
	}

	// Soft limits are work-conserving: alone on the node the container
	// runs at full speed, so 10s delivers 10 cpu-seconds of work.
	if math.Abs(cp.Work-10) > 1e-9 {
		t.Fatalf("checkpoint work = %g, want 10", cp.Work)
	}
	if cp.Name != "mnist" {
		t.Fatalf("checkpoint identity = %+v", cp)
	}
	if cp.CPULimit != 0.5 {
		t.Fatalf("checkpoint limit = %g", cp.CPULimit)
	}
	if cp.MemoryBytes != dlmodel.MNISTTensorFlow().MemoryBytes {
		t.Fatalf("checkpoint memory = %g", cp.MemoryBytes)
	}

	// The source pool is empty — the frozen container left entirely.
	if src.RunningCount() != 0 || len(src.PS(true)) != 0 {
		t.Fatalf("source pool not empty: %d running, %d total",
			src.RunningCount(), len(src.PS(true)))
	}
	if src.MemoryUsed() != 0 {
		t.Fatalf("source still accounts %g bytes", src.MemoryUsed())
	}

	rc, err := dst.Restore(cp)
	if err != nil {
		t.Fatal(err)
	}
	if rc.Name() != "mnist" || rc.CPULimit() != 0.5 {
		t.Fatalf("restored container = %s limit %g", rc.Name(), rc.CPULimit())
	}
	if rc.ID() == c.ID() {
		t.Fatal("restored container reused the source id")
	}
	// Same live workload: delivered work carried over.
	if rc.Workload() != runtime.Workload(job) {
		t.Fatal("restored container runs a different workload")
	}

	e.RunAll()
	if !job.Done() {
		t.Fatal("restored job did not finish")
	}
	// Remaining work after the freeze runs at full speed on dst.
	total := dlmodel.MNISTTensorFlow().TotalWork
	want := 10 + (total - 10)
	if math.Abs(float64(rc.FinishedAt())-want) > 1e-6 {
		t.Fatalf("finished at %v, want %g", rc.FinishedAt(), want)
	}
}

// Freezing fires the exit listeners (the departure is observable) but the
// workload is not done, so completion-counting observers must not count it.
func TestCheckpointFiresExitNotDone(t *testing.T) {
	e, d := newTestDaemon(t)
	exits := 0
	doneExits := 0
	d.OnExit(func(c *Container) {
		exits++
		if c.Workload().Done() {
			doneExits++
		}
	})
	c := mustRun(t, d, "j", &fakeJob{total: 100, demand: 1})
	e.At(10, sim.PriorityState, "freeze", func() {
		if _, err := d.Checkpoint(c.ID()); err != nil {
			t.Errorf("Checkpoint: %v", err)
		}
	})
	e.Run(10)
	if exits != 1 || doneExits != 0 {
		t.Fatalf("exits=%d doneExits=%d, want 1/0", exits, doneExits)
	}
}

// After a freeze the name is free again on the source daemon, so the job
// can come back to the same node (drain fallback, failure recovery).
func TestCheckpointFreesName(t *testing.T) {
	e, d := newTestDaemon(t)
	c := mustRun(t, d, "j", &fakeJob{total: 1000, demand: 1})
	e.At(5, sim.PriorityState, "freeze", func() {
		cp, err := d.Checkpoint(c.ID())
		if err != nil {
			t.Errorf("Checkpoint: %v", err)
			return
		}
		if _, err := d.Restore(cp); err != nil {
			t.Errorf("Restore onto the source daemon: %v", err)
		}
	})
	e.Run(5)
	if d.RunningCount() != 1 {
		t.Fatalf("running = %d after freeze+restore, want 1", d.RunningCount())
	}
}

// Checkpoint validates its target; Restore validates name collisions and
// single use.
func TestCheckpointRestoreErrors(t *testing.T) {
	e, d := newTestDaemon(t)
	if _, err := d.Checkpoint("nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unknown id: %v", err)
	}
	c := mustRun(t, d, "j", &fakeJob{total: 1000, demand: 1})
	var cp *runtime.Checkpoint
	e.At(1, sim.PriorityState, "freeze", func() {
		var err error
		if cp, err = d.Checkpoint(c.ID()); err != nil {
			t.Errorf("Checkpoint: %v", err)
		}
	})
	e.Run(1)
	if _, err := d.Checkpoint(c.ID()); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double freeze: %v", err)
	}

	// A name collision on the destination is surfaced, and the failed
	// restore does not consume the checkpoint.
	mustRun(t, d, "j", &fakeJob{total: 1000, demand: 1})
	if _, err := d.Restore(cp); !errors.Is(err, ErrNameInUse) {
		t.Fatalf("restore into taken name: %v", err)
	}

	other := NewDaemon(e, 1.0)
	if _, err := other.Restore(cp); err != nil {
		t.Fatalf("restore after failed attempt: %v", err)
	}
	if _, err := other.Restore(cp); err == nil {
		t.Fatal("second restore of one checkpoint succeeded")
	}
	if _, err := d.Restore(nil); err == nil {
		t.Fatal("nil checkpoint accepted")
	}
}

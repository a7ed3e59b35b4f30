package cluster

import (
	"testing"

	"repro/internal/dlmodel"
	"repro/internal/runtime"
	"repro/internal/sim"
	"repro/internal/simdocker"
)

// smallProfile is a light job for admission tests.
func smallProfile() dlmodel.Profile {
	p := dlmodel.MNISTTensorFlow()
	return p
}

func TestMaxContainersAdmission(t *testing.T) {
	e := sim.NewEngine()
	w, _ := NewSimWorker("w0", e, 1.0)
	w.SetMaxContainers(2)
	m := NewManager(e, []*Worker{w}, nil)

	m.Submit(0, "a", smallProfile())
	m.Submit(0, "b", smallProfile())
	m.Submit(0, "c", smallProfile()) // must queue
	e.Run(1)
	if w.RunningCount() != 2 {
		t.Fatalf("running = %d, want 2 (cap)", w.RunningCount())
	}
	if m.Queued() != 1 {
		t.Fatalf("queued = %d, want 1", m.Queued())
	}
	// When one finishes, the queued job is admitted.
	e.RunAll()
	if m.Queued() != 0 {
		t.Fatalf("queue not drained: %d", m.Queued())
	}
	if m.WorkerOf("c") != w {
		t.Fatal("queued job never placed")
	}
	for _, c := range w.PS(true) {
		if c.State != runtime.Exited {
			t.Fatalf("container %s not finished", c.Name)
		}
	}
}

func TestMemoryAwareAdmission(t *testing.T) {
	e := sim.NewEngine()
	w, d := NewSimWorker("w0", e, 1.0)
	// Node fits only one 800MB job.
	d.SetMemoryCapacity(1000 << 20)
	m := NewManager(e, []*Worker{w}, nil)
	m.Submit(0, "a", smallProfile()) // 800 MB
	m.Submit(0, "b", smallProfile()) // won't fit concurrently
	e.Run(1)
	if w.RunningCount() != 1 || m.Queued() != 1 {
		t.Fatalf("running=%d queued=%d, want 1/1", w.RunningCount(), m.Queued())
	}
	e.RunAll()
	jb := m.WorkerOf("b")
	if jb != w {
		t.Fatal("b never admitted after a finished")
	}
}

func TestBinPackMemoryPlacement(t *testing.T) {
	e := sim.NewEngine()
	w0, _ := NewSimWorker("w0", e, 1.0)
	w1, _ := NewSimWorker("w1", e, 1.0)
	m := NewManager(e, []*Worker{w0, w1}, BinPackMemory)
	m.Submit(0, "a", smallProfile())
	m.Submit(1, "b", smallProfile())
	e.Run(2)
	// Bin packing keeps both jobs on the first (now less-free) worker.
	if m.WorkerOf("a") != w0 || m.WorkerOf("b") != w0 {
		t.Fatalf("binpack spread jobs: a@%s b@%s", m.WorkerOf("a").Name(), m.WorkerOf("b").Name())
	}
}

func TestWorkerFailureReschedules(t *testing.T) {
	e := sim.NewEngine()
	w0, _ := NewSimWorker("w0", e, 1.0)
	w1, _ := NewSimWorker("w1", e, 1.0)
	m := NewManager(e, []*Worker{w0, w1}, nil)

	// One long job on each worker (least-loaded spreads them).
	m.Submit(0, "a", dlmodel.VAEPyTorch())
	m.Submit(0, "b", dlmodel.VAEPyTorch())
	e.Run(1)
	wa := m.WorkerOf("a")
	if wa == m.WorkerOf("b") {
		t.Fatal("precondition: jobs not spread")
	}

	// Crash a's worker mid-training.
	e.At(50, sim.PriorityState, "crash", func() { wa.Fail() })
	e.RunAll()

	if !wa.Failed() {
		t.Fatal("worker not marked failed")
	}
	if m.Requeued() != 1 {
		t.Fatalf("requeued = %d, want 1", m.Requeued())
	}
	// a restarted on the surviving worker and finished there.
	if got := m.WorkerOf("a"); got == wa || got == nil {
		t.Fatalf("a not rescheduled off the failed worker (on %v)", got)
	}
	surviving := m.WorkerOf("a")
	done := 0
	for _, c := range surviving.PS(true) {
		if c.Done {
			done++
		}
	}
	if done != 2 {
		t.Fatalf("%d jobs completed on survivor, want 2 (b + restarted a)", done)
	}
}

func TestWorkerFailureDoesNotResubmitFinishedJobs(t *testing.T) {
	e := sim.NewEngine()
	w, _ := NewSimWorker("w0", e, 1.0)
	spare, _ := NewSimWorker("w1", e, 1.0)
	m := NewManager(e, []*Worker{w, spare}, func(ws []*Worker, p dlmodel.Profile) *Worker {
		if ws[0].CanHost(p) {
			return ws[0]
		}
		if ws[1].CanHost(p) {
			return ws[1]
		}
		return nil
	})
	m.Submit(0, "quick", smallProfile())
	e.Run(100) // quick (28 work) finished long ago
	e.At(150, sim.PriorityState, "crash", func() { w.Fail() })
	e.RunAll()
	if m.Requeued() != 0 {
		t.Fatalf("finished job was requeued (%d)", m.Requeued())
	}
}

func TestWorkerRepairReadmits(t *testing.T) {
	e := sim.NewEngine()
	w, _ := NewSimWorker("w0", e, 1.0)
	m := NewManager(e, []*Worker{w}, nil)
	w.Fail()
	m.Submit(0, "a", smallProfile())
	e.Run(1)
	if m.Queued() != 1 {
		t.Fatalf("job not queued against failed worker (queued=%d)", m.Queued())
	}
	w.Repair()
	// A repair does not emit events by itself; the next exit or an
	// explicit drain admits. Simulate the manager's periodic reconcile by
	// submitting another job, which triggers placement directly.
	m.Submit(2, "b", smallProfile())
	e.RunAll()
	if m.WorkerOf("b") != w {
		t.Fatal("b not placed after repair")
	}
}

func TestFailureIsIdempotent(t *testing.T) {
	e := sim.NewEngine()
	w, _ := NewSimWorker("w0", e, 1.0)
	calls := 0
	w.OnFail(func() { calls++ })
	w.Fail()
	w.Fail()
	if calls != 1 {
		t.Fatalf("OnFail fired %d times", calls)
	}
}

func TestMemoryPressureSlowsTraining(t *testing.T) {
	// Two identical jobs on a node whose memory they overcommit by 60%:
	// completion takes (1 + 4*0.6) = 3.4x longer than unconstrained.
	run := func(memCapacity float64) sim.Time {
		e := sim.NewEngine()
		d := simdocker.NewDaemon(e, 1.0)
		if memCapacity > 0 {
			d.SetMemoryCapacity(memCapacity)
		}
		p := dlmodel.MNISTTensorFlow() // 800 MB each
		j1 := dlmodel.NewJob("m1", p)
		j2 := dlmodel.NewJob("m2", p)
		if _, err := d.Run(simdocker.RunSpec{Name: "m1", Workload: j1}); err != nil {
			t.Fatal(err)
		}
		if _, err := d.Run(simdocker.RunSpec{Name: "m2", Workload: j2}); err != nil {
			t.Fatal(err)
		}
		e.RunAll()
		return e.Now()
	}
	free := run(0)
	thrashed := run(1000 << 20) // 1600MB resident on a 1000MB node
	if thrashed <= free {
		t.Fatalf("overcommit did not slow training: %v vs %v", thrashed, free)
	}
	ratio := float64(thrashed) / float64(free)
	if ratio < 2.0 || ratio > 5.0 {
		t.Fatalf("thrash ratio %v outside plausible range", ratio)
	}
}

func TestCanHostChecks(t *testing.T) {
	e := sim.NewEngine()
	w, _ := NewSimWorker("w0", e, 1.0)
	p := smallProfile()
	if !w.CanHost(p) {
		t.Fatal("fresh worker refuses job")
	}
	w.Fail()
	if w.CanHost(p) {
		t.Fatal("failed worker accepts job")
	}
	w.Repair()
	w.SetMaxContainers(1)
	if _, err := w.LaunchJob("x", dlmodel.NewJob("x", p)); err != nil {
		t.Fatal(err)
	}
	if w.CanHost(p) {
		t.Fatal("full worker accepts job")
	}
}

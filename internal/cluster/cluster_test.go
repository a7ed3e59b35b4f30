package cluster

import (
	"math"
	"testing"

	"repro/internal/dlmodel"
	"repro/internal/runtime"
	"repro/internal/sim"
)

func TestImageFor(t *testing.T) {
	tests := []struct {
		name    string
		fw      dlmodel.Framework
		want    string
		wantErr bool
	}{
		{"pytorch", dlmodel.PyTorch, ImagePyTorch, false},
		{"tensorflow", dlmodel.TensorFlow, ImageTensorFlow, false},
		{"unknown framework", dlmodel.Framework("mxnet"), "", true},
		{"empty framework", dlmodel.Framework(""), "", true},
		{"case-sensitive", dlmodel.Framework("pytorch"), "", true},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			got, err := ImageFor(tc.fw)
			if (err != nil) != tc.wantErr {
				t.Fatalf("ImageFor(%q) error = %v, wantErr %v", tc.fw, err, tc.wantErr)
			}
			if got != tc.want {
				t.Fatalf("ImageFor(%q) = %q, want %q", tc.fw, got, tc.want)
			}
		})
	}
}

// A profile with an unmappable framework fails at launch with an error
// instead of tearing the simulation down.
func TestLaunchUnknownFrameworkErrors(t *testing.T) {
	e := sim.NewEngine()
	w, _ := NewSimWorker("w0", e, 1.0)
	p := dlmodel.MNISTTensorFlow()
	p.Framework = dlmodel.Framework("mxnet")
	if _, err := w.LaunchJob("j", dlmodel.NewJob("j", p)); err == nil {
		t.Fatal("launch with unknown framework succeeded")
	}
	if w.RunningCount() != 0 {
		t.Fatal("failed launch left a container behind")
	}
}

func TestWorkerLaunchAndLifecycle(t *testing.T) {
	e := sim.NewEngine()
	w, _ := NewSimWorker("w0", e, 1.0)
	var started, exited []string
	w.OnContainerStart(func(id string) { started = append(started, id) })
	w.OnContainerExit(func(id string) { exited = append(exited, id) })

	job := dlmodel.NewJob("quick", dlmodel.MNISTTensorFlow())
	c, err := w.LaunchJob("quick", job)
	if err != nil {
		t.Fatal(err)
	}
	if w.RunningCount() != 1 {
		t.Fatalf("RunningCount = %d", w.RunningCount())
	}
	e.RunAll()
	if len(started) != 1 || started[0] != c.ID {
		t.Fatalf("started = %v", started)
	}
	if len(exited) != 1 || exited[0] != c.ID {
		t.Fatalf("exited = %v", exited)
	}
	final, err := w.Lookup("quick")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(final.FinishedAt-28) > 1e-9 {
		t.Fatalf("finished at %v, want 28", final.FinishedAt)
	}
}

func TestWorkerImplementsFlowconRuntime(t *testing.T) {
	e := sim.NewEngine()
	w, _ := NewSimWorker("w0", e, 1.0)
	job := dlmodel.NewJob("j", dlmodel.VAEPyTorch())
	c, err := w.LaunchJob("j", job)
	if err != nil {
		t.Fatal(err)
	}
	e.At(10, sim.PriorityExecutor, "probe", func() {
		stats := w.RunningStats()
		if len(stats) != 1 {
			t.Errorf("RunningStats = %d entries", len(stats))
			return
		}
		if stats[0].ID != c.ID || stats[0].CPUSeconds <= 0 {
			t.Errorf("bad stat %+v", stats[0])
		}
		if err := w.SetCPULimit(c.ID, 0.5); err != nil {
			t.Errorf("SetCPULimit: %v", err)
		}
	})
	e.Run(11)
	final, err := w.Lookup("j")
	if err != nil {
		t.Fatal(err)
	}
	if final.CPULimit != 0.5 {
		t.Fatalf("limit = %v, want 0.5", final.CPULimit)
	}
}

func TestManagerPlacesOnLeastLoaded(t *testing.T) {
	e := sim.NewEngine()
	w0, _ := NewSimWorker("w0", e, 1.0)
	w1, _ := NewSimWorker("w1", e, 1.0)
	m := NewManager(e, []*Worker{w0, w1}, nil)

	var placements []string
	m.OnPlace(func(name string, w *Worker, c runtime.Container) {
		placements = append(placements, name+"@"+w.Name())
	})
	m.Submit(0, "a", dlmodel.VAEPyTorch())
	m.Submit(1, "b", dlmodel.VAEPyTorch())
	m.Submit(2, "c", dlmodel.VAEPyTorch())
	e.Run(5)
	if len(placements) != 3 {
		t.Fatalf("placements = %v", placements)
	}
	// a->w0, b->w1 (least loaded), c->w0 (tie break by order after both
	// have 1... w0 has 1, w1 has 1 -> first wins).
	if placements[0] != "a@w0" || placements[1] != "b@w1" || placements[2] != "c@w0" {
		t.Fatalf("placements = %v", placements)
	}
	if m.WorkerOf("b") != w1 {
		t.Fatal("WorkerOf(b) != w1")
	}
	if m.Submitted() != 3 {
		t.Fatalf("Submitted = %d", m.Submitted())
	}
}

func TestManagerDuplicateJobPanics(t *testing.T) {
	e := sim.NewEngine()
	w, _ := NewSimWorker("w0", e, 1.0)
	m := NewManager(e, []*Worker{w}, nil)
	m.Submit(0, "dup", dlmodel.GRU())
	m.Submit(1, "dup", dlmodel.GRU())
	defer func() {
		if recover() == nil {
			t.Error("duplicate submit did not panic")
		}
	}()
	// The name is checked when the arrival fires, not when it is scheduled.
	e.Run(2)
}

func TestManagerNoWorkersPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("empty worker list did not panic")
		}
	}()
	NewManager(sim.NewEngine(), nil, nil)
}

func TestManagerCustomPlacement(t *testing.T) {
	e := sim.NewEngine()
	w0, _ := NewSimWorker("w0", e, 1.0)
	w1, _ := NewSimWorker("w1", e, 1.0)
	// Always place on w1.
	m := NewManager(e, []*Worker{w0, w1}, func(ws []*Worker, _ dlmodel.Profile) *Worker { return ws[1] })
	m.Submit(0, "a", dlmodel.GRU())
	e.Run(1)
	if m.WorkerOf("a") != w1 {
		t.Fatal("custom placement ignored")
	}
}

func TestWorkerPrePullsImages(t *testing.T) {
	e := sim.NewEngine()
	w, _ := NewSimWorker("w0", e, 1.0)
	for _, img := range []string{ImagePyTorch, ImageTensorFlow} {
		if _, err := w.Launch(runtime.LaunchSpec{Image: img, Name: img, Workload: dlmodel.NewJob(img, dlmodel.GRU())}); err != nil {
			t.Fatalf("launch of pre-pulled %s: %v", img, err)
		}
	}
}

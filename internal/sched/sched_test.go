package sched

import (
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/dlmodel"
	"repro/internal/flowcon"
	"repro/internal/sim"
)

// launch submits a dlmodel job onto the worker at time `at`.
func launch(t *testing.T, e *sim.Engine, w *cluster.Worker, at sim.Time, name string, p dlmodel.Profile) {
	t.Helper()
	e.At(at, sim.PriorityState, "launch-"+name, func() {
		if _, err := w.LaunchJob(name, dlmodel.NewJob(name, p)); err != nil {
			t.Errorf("launch %s: %v", name, err)
		}
	})
}

func TestFlowConPolicyThrottlesConvergedJob(t *testing.T) {
	e := sim.NewEngine()
	w, d := cluster.NewSimWorker("w", e, 1.0)
	fc := &FlowCon{Config: flowcon.Config{Alpha: 0.05, Beta: 2, InitialInterval: 20}}
	fc.Attach(e, w)
	if fc.Name() != "FlowCon-5%-20" {
		t.Fatalf("Name = %q", fc.Name())
	}
	// VAE alone from 0; MNIST-TF joins at 80 — the fixed-schedule core.
	launch(t, e, w, 0, "vae", dlmodel.VAEPyTorch())
	launch(t, e, w, 80, "mnist", dlmodel.MNISTTensorFlow())
	e.Run(120)
	// By t=120 the VAE must be classified Completing and throttled while
	// MNIST stays New with a generous limit.
	ctrl := fc.Controller()
	if ctrl == nil {
		t.Fatal("controller not attached")
	}
	var vaeID, mnistID string
	for _, c := range d.PS(true) {
		switch c.Name() {
		case "vae":
			vaeID = c.ID()
		case "mnist":
			mnistID = c.ID()
		}
	}
	if l, ok := ctrl.ListOf(vaeID); !ok || l != flowcon.CompletingList {
		t.Fatalf("VAE in %v, want CL", l)
	}
	if l, ok := ctrl.ListOf(mnistID); !ok || l != flowcon.NewList {
		t.Fatalf("MNIST in %v, want NL", l)
	}
	vae, _ := d.Get(vaeID)
	mnist, _ := d.Get(mnistID)
	if vae.CPULimit() >= mnist.CPULimit() {
		t.Fatalf("VAE limit %v not below MNIST %v", vae.CPULimit(), mnist.CPULimit())
	}
	// And MNIST gets the lion's share of actual CPU.
	if vae.CPUAlloc() >= mnist.CPUAlloc() {
		t.Fatalf("VAE alloc %v not below MNIST %v", vae.CPUAlloc(), mnist.CPUAlloc())
	}
	if ctrl.Runs() == 0 || ctrl.LimitUpdates() == 0 {
		t.Fatalf("controller idle: runs=%d updates=%d", ctrl.Runs(), ctrl.LimitUpdates())
	}
}

func TestStaticEqualRebalances(t *testing.T) {
	e := sim.NewEngine()
	w, d := cluster.NewSimWorker("w", e, 1.0)
	StaticEqual{}.Attach(e, w)
	if StaticEqual.Name(StaticEqual{}) != "StaticEqual" {
		t.Fatal("name")
	}
	launch(t, e, w, 0, "a", dlmodel.VAEPyTorch())
	launch(t, e, w, 10, "b", dlmodel.VAEPyTorch())
	launch(t, e, w, 20, "c", dlmodel.VAEPyTorch())
	e.Run(25)
	for _, c := range d.PS(false) {
		if math.Abs(c.CPULimit()-1.0/3) > 1e-9 {
			t.Fatalf("container %s limit %v, want 1/3", c.Name(), c.CPULimit())
		}
	}
}

func TestSLAQFavorsProgressingJobs(t *testing.T) {
	e := sim.NewEngine()
	w, d := cluster.NewSimWorker("w", e, 1.0)
	s := &SLAQ{Interval: 20}
	s.Attach(e, w)
	if s.Name() != "SLAQ-like" {
		t.Fatal("name")
	}
	// A converged long-runner and a fresh fast job.
	launch(t, e, w, 0, "old", dlmodel.VAEPyTorch())
	launch(t, e, w, 150, "fresh", dlmodel.MNISTTensorFlow())
	e.Run(200)
	var old, fresh float64
	for _, c := range d.PS(false) {
		switch c.Name() {
		case "old":
			old = c.CPULimit()
		case "fresh":
			fresh = c.CPULimit()
		}
	}
	if fresh == 0 || old == 0 {
		t.Skip("a job already finished; timing drifted")
	}
	if old >= fresh {
		t.Fatalf("SLAQ gave converged job %v >= fresh job %v", old, fresh)
	}
}

func TestSLAQDefaults(t *testing.T) {
	s := &SLAQ{}
	e := sim.NewEngine()
	w, _ := cluster.NewSimWorker("w", e, 1.0)
	s.Attach(e, w)
	if s.Interval != 20 || s.MinShare != 0.05 {
		t.Fatalf("defaults not applied: %+v", s)
	}
}

package sched

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/dlmodel"
	"repro/internal/sim"
)

func TestTimeSliceActivatesSubset(t *testing.T) {
	e := sim.NewEngine()
	w, d := cluster.NewSimWorker("w", e, 1.0)
	ts := &TimeSlice{Slots: 1, Quantum: 30}
	ts.Attach(e, w)
	if ts.Name() != "TimeSlice" {
		t.Fatal("name")
	}
	launch(t, e, w, 0, "a", dlmodel.VAEPyTorch())
	launch(t, e, w, 0, "b", dlmodel.VAEPyTorch())
	launch(t, e, w, 0, "c", dlmodel.VAEPyTorch())
	e.Run(10)
	// Exactly one container holds weight 1; the others are parked.
	active, parked := 0, 0
	for _, c := range d.PS(false) {
		switch c.CPULimit() {
		case 1.0:
			active++
		default:
			parked++
		}
	}
	if active != 1 || parked != 2 {
		t.Fatalf("active=%d parked=%d, want 1/2", active, parked)
	}
}

func TestTimeSliceRotates(t *testing.T) {
	e := sim.NewEngine()
	w, d := cluster.NewSimWorker("w", e, 1.0)
	ts := &TimeSlice{Slots: 1, Quantum: 30}
	ts.Attach(e, w)
	launch(t, e, w, 0, "a", dlmodel.VAEPyTorch())
	launch(t, e, w, 0, "b", dlmodel.VAEPyTorch())
	activeAt := func() string {
		for _, c := range d.PS(false) {
			if c.CPULimit() == 1.0 {
				return c.Name()
			}
		}
		return ""
	}
	e.Run(10)
	first := activeAt()
	e.Run(45) // past one quantum
	second := activeAt()
	if first == "" || second == "" || first == second {
		t.Fatalf("no rotation: %q then %q", first, second)
	}
}

func TestTimeSliceCompletesWorkload(t *testing.T) {
	e := sim.NewEngine()
	w, d := cluster.NewSimWorker("w", e, 1.0)
	ts := &TimeSlice{Slots: 1, Quantum: 20}
	ts.Attach(e, w)
	launch(t, e, w, 0, "a", dlmodel.MNISTTensorFlow())
	launch(t, e, w, 5, "b", dlmodel.GRU())
	// Horizon generous: serialized execution plus parked trickle.
	e.Run(2000)
	for _, c := range d.PS(true) {
		if !c.Workload().Done() {
			t.Fatalf("container %s never finished under time slicing", c.Name())
		}
	}
}

func TestTimeSliceExitCleansRotation(t *testing.T) {
	e := sim.NewEngine()
	w, d := cluster.NewSimWorker("w", e, 1.0)
	ts := &TimeSlice{Slots: 2, Quantum: 15}
	ts.Attach(e, w)
	launch(t, e, w, 0, "short", dlmodel.MNISTTensorFlow())
	launch(t, e, w, 0, "long1", dlmodel.VAEPyTorch())
	launch(t, e, w, 0, "long2", dlmodel.VAEPyTorch())
	// Bounded horizon: the rotation loop self-schedules forever, so the
	// queue never drains on its own.
	e.Run(3000)
	// All three finish despite rotation-list surgery on exit.
	done := 0
	for _, c := range d.PS(true) {
		if c.Workload().Done() {
			done++
		}
	}
	if done != 3 {
		t.Fatalf("done = %d, want 3", done)
	}
}

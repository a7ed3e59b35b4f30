package flowcon

import (
	"math"
	"testing"
)

func TestMonitorFirstSampleUndefined(t *testing.T) {
	m := NewMonitor()
	got := m.Collect(10, []Stat{{ID: "a", Eval: 100, CPUSeconds: 5}})
	if len(got) != 1 || got[0].Defined {
		t.Fatalf("first sample = %+v, want undefined", got)
	}
	if len(m.prev) != 1 {
		t.Fatalf("monitor tracks %d, want 1", len(m.prev))
	}
}

func TestMonitorComputesPandG(t *testing.T) {
	m := NewMonitor()
	m.Collect(0, []Stat{{ID: "a", Eval: 100, CPUSeconds: 0}})
	got := m.Collect(20, []Stat{{ID: "a", Eval: 90, CPUSeconds: 10}})
	if !got[0].Defined {
		t.Fatal("second sample undefined")
	}
	// P = |90-100|/20 = 0.5 ; R = 10/20 = 0.5 ; G = 1.0
	if math.Abs(got[0].P-0.5) > 1e-12 {
		t.Fatalf("P = %v, want 0.5", got[0].P)
	}
	if math.Abs(got[0].R-0.5) > 1e-12 {
		t.Fatalf("R = %v, want 0.5", got[0].R)
	}
	if math.Abs(got[0].G-1.0) > 1e-12 {
		t.Fatalf("G = %v, want 1.0", got[0].G)
	}
}

// |ΔE| makes accuracy-increasing models measurable the same way as
// loss-decreasing ones.
func TestMonitorAbsoluteDelta(t *testing.T) {
	m := NewMonitor()
	m.Collect(0, []Stat{{ID: "acc", Eval: 10, CPUSeconds: 0}})
	got := m.Collect(10, []Stat{{ID: "acc", Eval: 30, CPUSeconds: 10}})
	if math.Abs(got[0].P-2.0) > 1e-12 {
		t.Fatalf("P = %v, want 2.0 for rising eval", got[0].P)
	}
}

func TestMonitorZeroUsageYieldsZeroG(t *testing.T) {
	m := NewMonitor()
	m.Collect(0, []Stat{{ID: "a", Eval: 100, CPUSeconds: 5}})
	got := m.Collect(10, []Stat{{ID: "a", Eval: 99, CPUSeconds: 5}})
	if got[0].G != 0 {
		t.Fatalf("G = %v with zero usage, want 0", got[0].G)
	}
}

func TestMonitorSameInstantKeepsBasis(t *testing.T) {
	m := NewMonitor()
	m.Collect(10, []Stat{{ID: "a", Eval: 100, CPUSeconds: 5}})
	// A listener-triggered run at the same instant: no interval yet.
	got := m.Collect(10, []Stat{{ID: "a", Eval: 100, CPUSeconds: 5}})
	if got[0].Defined {
		t.Fatalf("zero-interval sample = %+v, want undefined", got[0])
	}
	// The original basis must survive, so the next real interval differences
	// against t=10, not t=10 again with reset counters.
	got = m.Collect(30, []Stat{{ID: "a", Eval: 80, CPUSeconds: 15}})
	if !got[0].Defined || math.Abs(got[0].P-1.0) > 1e-12 {
		t.Fatalf("post-instant sample = %+v, want P=1", got[0])
	}
}

func TestMonitorDropsExited(t *testing.T) {
	m := NewMonitor()
	m.Collect(0, []Stat{{ID: "a", Eval: 1, CPUSeconds: 0}, {ID: "b", Eval: 1, CPUSeconds: 0}})
	m.Collect(10, []Stat{{ID: "a", Eval: 1, CPUSeconds: 5}})
	if len(m.prev) != 1 {
		t.Fatalf("monitor tracks %d after b exited, want 1", len(m.prev))
	}
}

func TestMonitorCounterRegressionPanics(t *testing.T) {
	m := NewMonitor()
	m.Collect(0, []Stat{{ID: "a", Eval: 1, CPUSeconds: 10}})
	defer func() {
		if recover() == nil {
			t.Error("cpu-seconds regression did not panic")
		}
	}()
	m.Collect(10, []Stat{{ID: "a", Eval: 1, CPUSeconds: 5}})
}

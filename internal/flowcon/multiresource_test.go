package flowcon

import (
	"math"
	"testing"

	"repro/internal/resource"
)

func TestMonitorPerResourceGrowth(t *testing.T) {
	m := NewMonitor()
	m.Collect(0, []Stat{{
		ID: "a", Eval: 100, CPUSeconds: 0, BlkIOBytes: 0, NetIOBytes: 0, MemoryBytes: 500,
	}})
	got := m.Collect(10, []Stat{{
		ID: "a", Eval: 90, CPUSeconds: 5, BlkIOBytes: 100, NetIOBytes: 20, MemoryBytes: 500,
	}})
	mm := got[0]
	if !mm.Defined {
		t.Fatal("undefined measurement")
	}
	// P = 1.0. R_cpu = 0.5, R_blkio = 10, R_netio = 2, R_mem = 500.
	if math.Abs(mm.P-1.0) > 1e-12 {
		t.Fatalf("P = %v", mm.P)
	}
	wantR := map[resource.Kind]float64{
		resource.CPU:    0.5,
		resource.BlkIO:  10,
		resource.NetIO:  2,
		resource.Memory: 500,
	}
	for k, want := range wantR {
		if math.Abs(mm.RKind[k]-want) > 1e-12 {
			t.Fatalf("R[%s] = %v, want %v", k, mm.RKind[k], want)
		}
		if math.Abs(mm.GKind[k]-1.0/want) > 1e-12 {
			t.Fatalf("G[%s] = %v, want %v", k, mm.GKind[k], 1.0/want)
		}
	}
	// Classification reads the CPU entries.
	if mm.G != mm.GKind[resource.CPU] || mm.R != mm.RKind[resource.CPU] {
		t.Fatalf("G = %v, want the CPU entry %v", mm.G, mm.GKind[resource.CPU])
	}
}

func TestMonitorZeroIOCountersSafe(t *testing.T) {
	// A runtime that meters only CPU must not produce NaNs for the other
	// dimensions.
	m := NewMonitor()
	m.Collect(0, []Stat{{ID: "a", Eval: 100, CPUSeconds: 0}})
	got := m.Collect(10, []Stat{{ID: "a", Eval: 90, CPUSeconds: 5}})
	for k := resource.Kind(0); k < resource.NumKinds; k++ {
		if math.IsNaN(got[0].GKind[k]) || math.IsInf(got[0].GKind[k], 0) {
			t.Fatalf("G[%s] not finite: %v", k, got[0].GKind[k])
		}
	}
	if got[0].GKind[resource.BlkIO] != 0 {
		t.Fatalf("unmetered blkio G = %v, want 0", got[0].GKind[resource.BlkIO])
	}
}

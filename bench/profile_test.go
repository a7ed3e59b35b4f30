package main

import (
	"math"
	"os"
	"strings"
	"testing"
)

// TestFoldTracesFixture folds a checked-in `go tool pprof -traces`
// listing whose stacks each exercise one charging rule.
func TestFoldTracesFixture(t *testing.T) {
	f, err := os.Open("testdata/traces.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	shares, total, err := foldTraces(f)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(total-0.100) > 1e-9 {
		t.Errorf("total = %g s, want 0.100 (mixed s/ms/us units)", total)
	}
	want := map[string]float64{
		// A map assign three stdlib frames deep lands on the innermost
		// layer frame — stats — not on metrics or sim further out.
		"stats": 0.30,
		// An inlined closure frame is a layer frame like any other.
		"metrics": 0.10,
		// The background mark worker, plus an assist that a metrics
		// allocation triggered: GC wins over the layer underneath.
		layerGC: 0.30,
		// Scheduler idling: no layer, no GC.
		layerRuntime: 0.10,
		// The benchmark's own main.* frames are looked through.
		"experiment": 0.10,
		// internal/runtime is not a reported layer; its caller owns it.
		"agent": 0.10,
	}
	sum := 0.0
	for bucket, share := range shares {
		sum += share
		if math.Abs(share-want[bucket]) > 1e-9 {
			t.Errorf("share[%s] = %g, want %g", bucket, share, want[bucket])
		}
	}
	for bucket := range want {
		if _, ok := shares[bucket]; !ok {
			t.Errorf("bucket %s missing", bucket)
		}
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares sum to %g, want 1", sum)
	}
}

func TestFoldTracesRejectsGarbage(t *testing.T) {
	if _, _, err := foldTraces(strings.NewReader("File: x\nType: cpu\n")); err == nil {
		t.Error("a listing without samples should be an error")
	}
	bad := "-----------+---\n   12parsecs   runtime.main\n"
	if _, _, err := foldTraces(strings.NewReader(bad)); err == nil {
		t.Error("an unreadable sample value should be an error")
	}
}

func TestLayerOf(t *testing.T) {
	for frame, want := range map[string]string{
		"repro/internal/sim.(*Engine).step":               "sim",
		"repro/internal/simdocker.(*Daemon).settle":       "simdocker",
		"repro/internal/runtime/runtimetest.Run":          "",
		"repro/internal/telemetry.(*Tracer).Record":       "",
		"repro/internal/livedock.(*Node).Launch":          "livedock",
		"internal/runtime/maps.(*Map).putSlotSmallFast32": "",
		"main.simRep": "",
		"repro/internal/metrics.(*Collector).observeCPU":      "metrics",
		"repro/internal/experiment.Sweep.func1":               "experiment",
		"repro/internal/simulation.notALayerDespiteThePrefix": "",
	} {
		if got := layerOf(frame); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", frame, got, want)
		}
	}
}

package experiment

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/workload"
)

// benchSweep runs the four-way fixed-schedule sweep at a fixed pool
// width and reports the engine's own speedup accounting (serial work /
// wall clock). On a multi-core box the parallel case approaches
// min(width, cores)×; on one core both run at ~1×.
func benchSweep(b *testing.B, parallelism int) {
	b.Helper()
	specs := SettingSpecs("bench", workload.FixedSchedule(), []Setting{
		{Alpha: 0.05, Itval: 20},
		{Alpha: 0.05, Itval: 40},
		{Alpha: 0.10, Itval: 20},
		{NA: true},
	})
	var sr *SweepResult
	for i := 0; i < b.N; i++ {
		var err error
		sr, err = Sweep(context.Background(), specs, SweepOptions{Parallelism: parallelism})
		if err != nil || sr.Err() != nil {
			b.Fatalf("sweep: %v / %v", err, sr.Err())
		}
	}
	b.ReportMetric(sr.Speedup(), "speedup_x")
	b.ReportMetric(float64(sr.Parallelism), "pool_width")
}

// BenchmarkSweep4WaySerial is the baseline: the same four specs through
// a single-worker pool.
func BenchmarkSweep4WaySerial(b *testing.B) { benchSweep(b, 1) }

// BenchmarkSweep4WayParallel runs the four specs across GOMAXPROCS
// workers (capped at 4 by the spec count). Compare ns/op against the
// serial benchmark for the wall-clock speedup.
func BenchmarkSweep4WayParallel(b *testing.B) { benchSweep(b, runtime.GOMAXPROCS(0)) }

// BenchmarkSweepGrid18 exercises a bigger sensitivity grid (3α × 3itval
// × 2 seeds = 18 runs) at full width — the multi-figure sweep shape.
func BenchmarkSweepGrid18(b *testing.B) {
	var settings []Setting
	for _, a := range []float64{0.03, 0.05, 0.10} {
		for _, it := range []float64{20, 30, 60} {
			settings = append(settings, Setting{Alpha: a, Itval: it})
		}
	}
	var specs []Spec
	for _, seed := range []int64{1, 2} {
		specs = append(specs, SettingSpecs(fmt.Sprintf("bench-grid seed=%d", seed), workload.RandomFive(seed), settings)...)
	}
	var sr *SweepResult
	for i := 0; i < b.N; i++ {
		var err error
		sr, err = Sweep(context.Background(), specs, SweepOptions{})
		if err != nil || sr.Err() != nil {
			b.Fatalf("sweep: %v / %v", err, sr.Err())
		}
	}
	b.ReportMetric(sr.Speedup(), "speedup_x")
	b.ReportMetric(float64(len(sr.Runs)), "runs")
}

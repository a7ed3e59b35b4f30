package repro

import (
	"fmt"
	"testing"

	"repro/internal/cluster"
	"repro/internal/experiment"
	"repro/internal/faults"
	"repro/internal/flowcon"
	"repro/internal/resource"
	"repro/internal/sim"
	"repro/internal/workload"
)

// BenchmarkSensitivityAlpha sweeps the classification threshold α on the
// ten-job workload — the sensitivity study behind the paper's "the best α
// setting depends on the number of active containers and the models"
// remark.
func BenchmarkSensitivityAlpha(b *testing.B) {
	alphas := []float64{0.01, 0.03, 0.05, 0.10, 0.20}
	makespans := make([]float64, len(alphas))
	var na *experiment.Result
	for i := 0; i < b.N; i++ {
		na = experiment.Run(tenJobSpec(experiment.NAPolicy(20)))
		for j, a := range alphas {
			res := experiment.Run(tenJobSpec(experiment.FlowConPolicy(a, 20)))
			makespans[j] = res.Makespan
		}
	}
	for j, a := range alphas {
		b.ReportMetric(makespans[j], fmt.Sprintf("makespan_alpha_%g_s", a*100))
	}
	b.ReportMetric(na.Makespan, "makespan_na_s")
}

// BenchmarkSensitivityInterval sweeps itval on the ten-job workload.
func BenchmarkSensitivityInterval(b *testing.B) {
	itvals := []float64{10, 20, 40, 80}
	makespans := make([]float64, len(itvals))
	for i := 0; i < b.N; i++ {
		for j, itv := range itvals {
			res := experiment.Run(tenJobSpec(experiment.FlowConPolicy(0.10, itv)))
			makespans[j] = res.Makespan
		}
	}
	for j, itv := range itvals {
		b.ReportMetric(makespans[j], fmt.Sprintf("makespan_itval_%g_s", itv))
	}
}

// BenchmarkAblationTimeSlice compares the Gandiva-style time-slicing
// baseline against FlowCon on the ten-job workload.
func BenchmarkAblationTimeSlice(b *testing.B) {
	var fc, ts *experiment.Result
	for i := 0; i < b.N; i++ {
		fc = experiment.Run(tenJobSpec(experiment.FlowConPolicy(0.10, 20)))
		ts = experiment.Run(tenJobSpec(experiment.TimeSlicePolicy(2, 60)))
	}
	b.ReportMetric(fc.Makespan, "flowcon_makespan_s")
	b.ReportMetric(ts.Makespan, "timeslice_makespan_s")
}

// BenchmarkAblationPlacement compares spread (least-loaded) against
// memory bin-packing on a two-worker cluster.
func BenchmarkAblationPlacement(b *testing.B) {
	var spread, binpack *experiment.Result
	for i := 0; i < b.N; i++ {
		s := tenJobSpec(experiment.FlowConPolicy(0.10, 20))
		s.Workers = 2
		spread = experiment.Run(s)
		s = tenJobSpec(experiment.FlowConPolicy(0.10, 20))
		s.Workers = 2
		s.Placement = cluster.BinPackMemory
		binpack = experiment.Run(s)
	}
	b.ReportMetric(spread.Makespan, "spread_makespan_s")
	b.ReportMetric(binpack.Makespan, "binpack_makespan_s")
}

// crashAt300 crashes worker 0 at t=300 and leaves it down.
var crashAt300 = &faults.Plan{Script: []faults.ScriptedFault{{At: 300, Kind: faults.KindCrash, Worker: 0}}}

// BenchmarkAblationFailure measures the cost of one worker crash at t=300
// on a two-worker ten-job run: lost work plus rescheduling.
func BenchmarkAblationFailure(b *testing.B) {
	var clean, crashed *experiment.Result
	for i := 0; i < b.N; i++ {
		s := tenJobSpec(experiment.FlowConPolicy(0.10, 20))
		s.Workers = 2
		clean = experiment.Run(s)
		s = tenJobSpec(experiment.FlowConPolicy(0.10, 20))
		s.Workers = 2
		s.Faults = crashAt300
		crashed = experiment.Run(s)
	}
	b.ReportMetric(clean.Makespan, "healthy_makespan_s")
	b.ReportMetric(crashed.Makespan, "crashed_makespan_s")
	b.ReportMetric(float64(crashed.Requeued), "jobs_rescheduled")
}

// --- micro-benchmarks of the substrates ---

// BenchmarkAllocator measures the proportional-share allocator at a
// 100-container pool.
func BenchmarkAllocator(b *testing.B) {
	claims := make([]resource.Claim, 100)
	for i := range claims {
		claims[i] = resource.Claim{
			ID:     fmt.Sprintf("c%03d", i),
			Limit:  0.05 + float64(i%19)*0.05,
			Demand: 0.1 + float64(i%7)*0.15,
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		new(resource.Allocator).Allocate(1.0, claims)
	}
}

// BenchmarkSimEngine measures raw event throughput.
func BenchmarkSimEngine(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := sim.NewEngine()
		count := 0
		var chain func()
		chain = func() {
			count++
			if count < 10000 {
				e.After(1, sim.PriorityState, "chain", chain)
			}
		}
		e.After(1, sim.PriorityState, "chain", chain)
		e.RunAll()
	}
	b.ReportMetric(10000, "events/op")
}

// BenchmarkMonitorCollect measures Eq.1/Eq.2 derivation over a 50-container
// pool.
func BenchmarkMonitorCollect(b *testing.B) {
	m := flowcon.NewMonitor()
	stats := make([]flowcon.Stat, 50)
	for i := range stats {
		stats[i] = flowcon.Stat{ID: fmt.Sprintf("c%02d", i), Eval: 100, CPUSeconds: 0}
	}
	now := 0.0
	m.Collect(now, stats)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now += 20
		for j := range stats {
			stats[j].Eval *= 0.99
			stats[j].CPUSeconds += 0.4
		}
		m.Collect(now, stats)
	}
}

// BenchmarkFullExperiment measures the end-to-end cost of one complete
// fixed-schedule simulation (engine + daemon + FlowCon + metrics).
func BenchmarkFullExperiment(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiment.Run(experiment.Spec{
			Name:        "bench",
			NewPolicy:   experiment.FlowConPolicy(0.05, 20),
			Submissions: workload.FixedSchedule(),
		})
		if !res.Completed {
			b.Fatal("run did not complete")
		}
	}
}

// BenchmarkAblationCheckpointing quantifies what periodic model snapshots
// buy when a worker crashes at t=300 (extension beyond the paper).
func BenchmarkAblationCheckpointing(b *testing.B) {
	var scratch, resumed *experiment.Result
	for i := 0; i < b.N; i++ {
		s := tenJobSpec(experiment.FlowConPolicy(0.10, 20))
		s.Workers = 2
		s.Faults = crashAt300
		scratch = experiment.Run(s)
		s.Recovery = &cluster.RecoveryPolicy{CheckpointEverySec: 30}
		resumed = experiment.Run(s)
	}
	b.ReportMetric(scratch.Makespan, "scratch_restart_makespan_s")
	b.ReportMetric(resumed.Makespan, "checkpointed_makespan_s")
}

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation section, plus ablation benches for the design choices called
// out in DESIGN.md. Each benchmark regenerates the paper artifact from
// scratch every iteration and reports the headline quantities (makespan,
// reductions) as custom metrics, so `go test -bench=. -benchmem` both
// times the simulator and reprints the paper-shaped numbers.
package repro

import (
	"testing"

	"repro/internal/dlmodel"
	"repro/internal/experiment"
	"repro/internal/flowcon"
	"repro/internal/sched"
	"repro/internal/workload"
)

// reduction returns the relative completion-time reduction of `job` in fc
// versus na.
func reduction(fc, na *experiment.Result, job string) float64 {
	n := na.CompletionTimes()[job]
	return (n - fc.CompletionTimes()[job]) / n
}

// wins counts jobs whose completion time improved under fc.
func wins(fc, na *experiment.Result) int {
	w := 0
	naT := na.CompletionTimes()
	for name, v := range fc.CompletionTimes() {
		if v < naT[name] {
			w++
		}
	}
	return w
}

// BenchmarkTable1 builds and validates the Table 1 model catalog.
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := dlmodel.Table1()
		if len(rows) != 6 {
			b.Fatal("catalog broken")
		}
	}
}

// BenchmarkFig1 regenerates Figure 1: training progress of five models.
func BenchmarkFig1(b *testing.B) {
	var curves []experiment.ModelCurve
	for i := 0; i < b.N; i++ {
		curves = experiment.Fig1()
	}
	b.ReportMetric(float64(len(curves)), "models")
}

// benchFixedSweep runs one of the Figures 3-6 sweeps and reports the tail
// job's best reduction across settings.
func benchFixedSweep(b *testing.B, run func() *experiment.SettingSweep) {
	b.Helper()
	var sw *experiment.SettingSweep
	for i := 0; i < b.N; i++ {
		sw = run()
	}
	na := sw.ResultFor("NA")
	best := 0.0
	for i, s := range sw.Settings {
		if s.NA {
			continue
		}
		if r := reduction(sw.Results[i], na, "MNIST (Tensorflow)"); r > best {
			best = r
		}
	}
	b.ReportMetric(best*100, "best_tail_reduction_%")
	b.ReportMetric(na.Makespan, "na_makespan_s")
}

// BenchmarkFig3 regenerates Figure 3 (α=5%, itval 20..60 + NA).
func BenchmarkFig3(b *testing.B) { benchFixedSweep(b, experiment.Fig3) }

// BenchmarkFig4 regenerates Figure 4 (α=10%, itval 20..60 + NA).
func BenchmarkFig4(b *testing.B) { benchFixedSweep(b, experiment.Fig4) }

// BenchmarkFig5 regenerates Figure 5 (itval=20, α 1..15% + NA).
func BenchmarkFig5(b *testing.B) { benchFixedSweep(b, experiment.Fig5) }

// BenchmarkFig6 regenerates Figure 6 (itval=30, α 1..15% + NA).
func BenchmarkFig6(b *testing.B) { benchFixedSweep(b, experiment.Fig6) }

// BenchmarkTable2 regenerates Table 2 from the Figure 4 and 5 grids.
func BenchmarkTable2(b *testing.B) {
	var rows []experiment.Table2Row
	for i := 0; i < b.N; i++ {
		rows = experiment.Table2(experiment.Fig4(), experiment.Fig5())
	}
	worst, best := 1.0, 0.0
	for _, r := range rows {
		if r.Reduction < worst {
			worst = r.Reduction
		}
		if r.Reduction > best {
			best = r.Reduction
		}
	}
	b.ReportMetric(best*100, "best_reduction_%")
	b.ReportMetric(worst*100, "worst_reduction_%")
}

// BenchmarkFig7Fig8 regenerates the fixed-schedule CPU traces (FlowCon and
// NA) and reports the makespan gain.
func BenchmarkFig7Fig8(b *testing.B) {
	var fc, na *experiment.Result
	for i := 0; i < b.N; i++ {
		fc, na = experiment.FixedPair()
	}
	b.ReportMetric((na.Makespan-fc.Makespan)/na.Makespan*100, "makespan_gain_%")
	b.ReportMetric(float64(fc.Collector.CPUSeries("VAE (Pytorch)").Len()), "cpu_samples")
}

// BenchmarkFig9 regenerates Figure 9: five random jobs across settings.
func BenchmarkFig9(b *testing.B) {
	var sw *experiment.SettingSweep
	for i := 0; i < b.N; i++ {
		sw = experiment.Fig9()
	}
	na := sw.ResultFor("NA")
	minWins := len(sw.JobNames)
	for i, s := range sw.Settings {
		if s.NA {
			continue
		}
		if w := wins(sw.Results[i], na); w < minWins {
			minWins = w
		}
	}
	b.ReportMetric(float64(minWins), "min_jobs_improved")
}

// BenchmarkFig10Fig11 regenerates the five-job CPU traces.
func BenchmarkFig10Fig11(b *testing.B) {
	var fc, na *experiment.Result
	for i := 0; i < b.N; i++ {
		fc, na = experiment.RandomPair()
	}
	b.ReportMetric((na.Makespan-fc.Makespan)/na.Makespan*100, "makespan_gain_%")
}

// BenchmarkFig12to16 regenerates the ten-job pair feeding Figures 12-16.
func BenchmarkFig12to16(b *testing.B) {
	var fc, na *experiment.Result
	for i := 0; i < b.N; i++ {
		fc, na = experiment.TenJobPair()
	}
	b.ReportMetric(float64(wins(fc, na)), "jobs_improved_of_10")
	b.ReportMetric((na.Makespan-fc.Makespan)/na.Makespan*100, "makespan_gain_%")
	b.ReportMetric(reduction(fc, na, "Job-6")*100, "job6_reduction_%")
	b.ReportMetric(reduction(fc, na, "Job-2")*100, "job2_reduction_%")
	b.ReportMetric(float64(experiment.GrowthTrace(fc, "Job-6").Len()), "job6_growth_samples")
}

// BenchmarkFig17 regenerates Figure 17: fifteen random jobs.
func BenchmarkFig17(b *testing.B) {
	var fc, na *experiment.Result
	for i := 0; i < b.N; i++ {
		fc, na = experiment.FifteenJobPair()
	}
	b.ReportMetric(float64(wins(fc, na)), "jobs_improved_of_15")
	b.ReportMetric((na.Makespan-fc.Makespan)/na.Makespan*100, "makespan_gain_%")
}

// BenchmarkPaperPairsRead runs the four FlowCon/NA pairs behind Figures
// 7/8, 10/11, 12-16 and 17 and reads every job's CPU and evaluation
// series inside the timed loop, as a figure regenerator does: the dense
// tier derives those series on read, so this times the simulation and
// the derivation together.
func BenchmarkPaperPairsRead(b *testing.B) {
	pairs := []func() (*experiment.Result, *experiment.Result){
		experiment.FixedPair, experiment.RandomPair, experiment.TenJobPair, experiment.FifteenJobPair,
	}
	points := 0
	for i := 0; i < b.N; i++ {
		points = 0
		for _, pair := range pairs {
			fc, na := pair()
			for _, res := range []*experiment.Result{fc, na} {
				for _, j := range res.Jobs {
					points += len(res.Collector.CPUSeries(j.Name).Points())
					points += len(res.Collector.EvalSeries(j.Name).Points())
				}
			}
		}
	}
	b.ReportMetric(float64(points), "points")
}

// --- Ablation benches (design choices from DESIGN.md) ---

// tenJobSpec builds the Figure 12 workload under an arbitrary policy.
func tenJobSpec(newPolicy func(flowcon.Tracer) sched.Policy) experiment.Spec {
	return experiment.Spec{
		Name:        "ablation",
		NewPolicy:   newPolicy,
		Submissions: workload.RandomN(10, experiment.SeedRandomTen),
	}
}

// BenchmarkAblationNoBackoff disables the exponential back-off: the
// algorithm runs at the initial interval even when every container has
// converged, trading scheduling overhead for nothing.
func BenchmarkAblationNoBackoff(b *testing.B) {
	var with, without *experiment.Result
	for i := 0; i < b.N; i++ {
		with = experiment.Run(tenJobSpec(experiment.FlowConPolicy(0.10, 20)))
		without = experiment.Run(tenJobSpec(experiment.FlowConPolicyNoBackoff(0.10, 20)))
	}
	b.ReportMetric(float64(with.AlgorithmRuns), "runs_with_backoff")
	b.ReportMetric(float64(without.AlgorithmRuns), "runs_without_backoff")
	b.ReportMetric(without.Makespan-with.Makespan, "makespan_delta_s")
}

// BenchmarkAblationNoListeners disables Algorithm 2's real-time
// interrupts: arrivals wait for the next periodic tick before receiving
// resources, reproducing the latency the paper's listeners eliminate.
func BenchmarkAblationNoListeners(b *testing.B) {
	var with, without *experiment.Result
	for i := 0; i < b.N; i++ {
		with = experiment.Run(tenJobSpec(experiment.FlowConPolicy(0.10, 20)))
		without = experiment.Run(tenJobSpec(experiment.FlowConPolicyNoListeners(0.10, 20)))
	}
	b.ReportMetric(with.Makespan, "makespan_with_listeners_s")
	b.ReportMetric(without.Makespan, "makespan_without_listeners_s")
}

// BenchmarkAblationBeta sweeps the Completing-list floor factor β
// (floor = 1/(β·n)); the paper leaves β unspecified, DESIGN.md fixes 2.
func BenchmarkAblationBeta(b *testing.B) {
	betas := []float64{1, 2, 4, 8}
	makespans := make([]float64, len(betas))
	for i := 0; i < b.N; i++ {
		for j, beta := range betas {
			res := experiment.Run(tenJobSpec(experiment.FlowConPolicyBeta(0.10, 20, beta)))
			makespans[j] = res.Makespan
		}
	}
	for j, beta := range betas {
		b.ReportMetric(makespans[j], "makespan_beta_"+fmtFloat(beta)+"_s")
	}
}

// BenchmarkAblationSLAQ compares the SLAQ-like quality-driven baseline
// (periodic, no listeners, no hysteresis) against FlowCon on the ten-job
// workload.
func BenchmarkAblationSLAQ(b *testing.B) {
	var fc, slaq *experiment.Result
	for i := 0; i < b.N; i++ {
		fc = experiment.Run(tenJobSpec(experiment.FlowConPolicy(0.10, 20)))
		slaq = experiment.Run(tenJobSpec(experiment.SLAQPolicy(20)))
	}
	b.ReportMetric(fc.Makespan, "flowcon_makespan_s")
	b.ReportMetric(slaq.Makespan, "slaq_makespan_s")
}

// BenchmarkAblationContention removes the calibrated co-location overhead
// (ideal loss-free node): FlowCon's makespan edge disappears, confirming
// the paper's "reduced overlap" explanation.
func BenchmarkAblationContention(b *testing.B) {
	var fcIdeal, naIdeal *experiment.Result
	for i := 0; i < b.N; i++ {
		spec := tenJobSpec(experiment.FlowConPolicy(0.10, 20))
		spec.ContentionOverhead = -1
		fcIdeal = experiment.Run(spec)
		spec = tenJobSpec(experiment.NAPolicy(20))
		spec.ContentionOverhead = -1
		naIdeal = experiment.Run(spec)
	}
	b.ReportMetric((naIdeal.Makespan-fcIdeal.Makespan)/naIdeal.Makespan*100, "ideal_makespan_gain_%")
}

// BenchmarkAblationMultiWorker runs the ten-job workload across two
// FlowCon workers with least-loaded placement.
func BenchmarkAblationMultiWorker(b *testing.B) {
	var res *experiment.Result
	for i := 0; i < b.N; i++ {
		spec := tenJobSpec(experiment.FlowConPolicy(0.10, 20))
		spec.Workers = 2
		res = experiment.Run(spec)
	}
	b.ReportMetric(res.Makespan, "makespan_2workers_s")
}

// BenchmarkSchedulerOverhead measures the raw cost of one Algorithm 1
// step over a large container pool — the per-decision overhead the
// paper's back-off scheme amortizes.
func BenchmarkSchedulerOverhead(b *testing.B) {
	snaps := make([]flowcon.JobSnapshot, 100)
	for i := range snaps {
		snaps[i] = flowcon.JobSnapshot{
			ID:       string(rune('a'+i%26)) + string(rune('0'+i/26)),
			List:     flowcon.List(i % 3),
			G:        float64(i%17) * 0.01,
			GDefined: true,
		}
	}
	cfg := flowcon.Config{Alpha: 0.05, Beta: 2, InitialInterval: 20}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		flowcon.Step(snaps, cfg)
	}
}

// fmtFloat renders a float without importing fmt for a single call site.
func fmtFloat(f float64) string {
	switch f {
	case 1:
		return "1"
	case 2:
		return "2"
	case 4:
		return "4"
	case 8:
		return "8"
	default:
		return "x"
	}
}

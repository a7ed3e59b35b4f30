package metrics

import (
	"fmt"
	"testing"

	"repro/internal/sim"
)

// BenchmarkSamplerPass measures one dense-tier sampler pass — settle,
// then a CPU and an evaluation sample per container — on a node running n
// containers: the dense observer's per-period cost at the 16/64/256
// containers-per-node ladder of the perf trajectory.
func BenchmarkSamplerPass(b *testing.B) {
	for _, n := range []int{16, 64, 256} {
		b.Run(fmt.Sprintf("%d", n), func(b *testing.B) {
			e := sim.NewEngine()
			col := NewCollectorTier(e, 2.0, TierDense)
			s := col.newSampler(endlessPool(b, col, e, "", n))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Run(e.Now() + 2.0)
				s.pass()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/container")
		})
	}
}

// BenchmarkSampleTick measures one whole summary-tier collector period
// through the engine — the single metrics.sample event settling every
// worker, then rescheduling — on w workers of 8 containers each: the
// default observer's per-period cost at cluster widths.
func BenchmarkSampleTick(b *testing.B) {
	const perWorker = 8
	for _, w := range []int{16, 256} {
		b.Run(fmt.Sprintf("%d", w), func(b *testing.B) {
			e := sim.NewEngine()
			col := NewCollector(e, 2.0)
			attachWorkers(b, col, e, w, perWorker)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Run(e.Now() + 2.0)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*w*perWorker), "ns/container")
		})
	}
}

package metrics

import (
	"fmt"
	"testing"

	"repro/internal/sim"
)

// BenchmarkSamplerPass measures one dense-tier sampler pass — a CPU and
// an evaluation sample per container, both closed-form reads — on a node running n
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

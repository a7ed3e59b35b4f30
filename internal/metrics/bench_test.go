package metrics

import (
	"fmt"
	"testing"

	"repro/internal/sim"
	"repro/internal/simdocker"
)

// capture is an observer that keeps the last fold of every container.
type capture struct {
	conts []*simdocker.Container
	folds []simdocker.Fold
}

func (o *capture) Folded(c *simdocker.Container, f simdocker.Fold) {
	o.conts = append(o.conts, c)
	o.folds = append(o.folds, f)
}

func (o *capture) Removed(*simdocker.Container, uint64) {}

// BenchmarkRateLog measures the dense tier's cost per reallocation and
// per period on a node running n containers: one reallocation's worth
// of observer calls (one per running container) into the worker's rate
// log, plus one tick, at the 16/64/256 containers-per-node ladder of the
// perf trajectory. The log is truncated every iteration so memory stays
// bounded: this is the steady-state append, without the log's amortised
// growth. Nothing is derived; that cost lands on a series read
// (BenchmarkPaperPairsRead in the root package times both).
func BenchmarkRateLog(b *testing.B) {
	for _, n := range []int{16, 64, 256} {
		b.Run(fmt.Sprintf("%d", n), func(b *testing.B) {
			e := sim.NewEngine()
			col := NewCollectorTier(e, 2.0, TierDense)
			d := endlessPool(b, col, e, "", n)
			var last capture
			d.SetObserver(&last)
			col.AttachWorker("w0", d)
			w := col.workers[0]
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w.recs = w.recs[:0]
				col.ticks = col.ticks[:0]
				for k, c := range last.conts {
					w.Folded(c, last.folds[k])
				}
				e.Run(e.Now() + 2.0)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/container")
		})
	}
}

package migrate

import (
	"fmt"
	"testing"

	"repro/internal/cluster"
	"repro/internal/dlmodel"
	"repro/internal/sim"
)

// poolSizes is the containers-per-node ladder shared with the simdocker
// hot-path benchmarks; BENCH_sim.json records both.
var poolSizes = []int{16, 64, 256}

// benchProfile never finishes inside a benchmark and keeps a measurable
// (slowly decaying) evaluation slope so GE stays defined.
func benchProfile() dlmodel.Profile {
	return dlmodel.Profile{
		Name:         "BenchJob",
		Framework:    dlmodel.PyTorch,
		EvalFunction: "Squared Loss",
		Direction:    dlmodel.Decreasing,
		TotalWork:    1e12,
		Curve:        dlmodel.ExpCurve{Start: 100, Final: 1, K: 1e-6},
		CPUDemand:    1.0,
		MemoryBytes:  1 << 30,
	}
}

// benchCluster stands up `workers` nodes with n jobs packed onto the
// first one (memory modelling off so any pool size fits a node).
func benchCluster(b *testing.B, workers, n int) (*sim.Engine, *cluster.Manager) {
	b.Helper()
	e := sim.NewEngine()
	ws := make([]*cluster.Worker, workers)
	for i := range ws {
		w, d := cluster.NewSimWorker(fmt.Sprintf("w%d", i), e, 1.0)
		d.SetMemoryCapacity(0)
		ws[i] = w
	}
	m := cluster.NewManager(e, ws, cluster.FirstFit)
	p := benchProfile()
	for i := 0; i < n; i++ {
		m.Submit(0, fmt.Sprintf("job-%04d", i), p)
	}
	e.Run(1)
	return e, m
}

// BenchmarkMigrate measures one full manager-mediated live migration
// against a pool of n on the source node: checkpoint, in-flight
// accounting, the thaw event, restore, and placement re-binding. Jobs
// ping-pong between two workers so the pool shape is stable across
// iterations.
func BenchmarkMigrate(b *testing.B) {
	for _, n := range poolSizes {
		b.Run(fmt.Sprintf("%d", n), func(b *testing.B) {
			e, m := benchCluster(b, 2, n)
			workers := m.Workers()
			cost := cluster.DefaultMigrationCost()
			delay := cost.Delay(benchProfile().MemoryBytes)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				job := fmt.Sprintf("job-%04d", i%n)
				src := m.WorkerOf(job)
				dst := workers[0]
				if src == dst {
					dst = workers[1]
				}
				if err := m.Migrate(cluster.MigrationSpec{Job: job, Dst: dst, Cost: cost}); err != nil {
					b.Fatal(err)
				}
				// Run just past the thaw (virtual delay costs no wall
				// time); the never-finishing jobs' analytic completion
				// events stay queued in the far future.
				e.Run(e.Now() + sim.Time(delay) + 1)
				if m.WorkerOf(job) != dst {
					b.Fatal("thaw did not land")
				}
			}
		})
	}
}

// BenchmarkRebalanceScan measures one rebalancer scan over a 4-worker
// cluster with n containers on the hottest node: per-worker stats
// collection, GE derivation, and the heuristic — without executing the
// plan, so every iteration sees the same skewed state.
func BenchmarkRebalanceScan(b *testing.B) {
	for _, n := range poolSizes {
		b.Run(fmt.Sprintf("%d", n), func(b *testing.B) {
			e, m := benchCluster(b, 4, n)
			r := New(Config{Interval: 1e12}) // ticks never fire
			r.AttachCluster(e, m)
			// Warm the monitors so GE is defined from the first iteration.
			e.At(e.Now()+1, sim.PriorityMetric, "warm", func() { r.Scan() })
			e.Run(e.Now() + 1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.At(e.Now()+0.001, sim.PriorityMetric, "scan", func() {
					if plans := r.Scan(); len(plans) == 0 {
						b.Fatal("skewed cluster produced no plan")
					}
				})
				e.Run(e.Now() + 0.001)
			}
		})
	}
}

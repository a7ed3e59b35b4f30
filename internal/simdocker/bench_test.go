package simdocker

import (
	"fmt"
	"testing"

	"repro/internal/sim"
)

// poolSizes is the per-node container ladder of the perf trajectory: the
// per-operation cost of the daemon hot path must grow ~linearly in the
// running-pool size (one settle/realloc pass), not quadratically.
var poolSizes = []int{16, 64, 256}

// benchDaemon builds a daemon with n long-running containers, some with
// memory footprints so the thrash/efficiency path stays exercised.
func benchDaemon(b *testing.B, n int) (*sim.Engine, *Daemon, []string) {
	b.Helper()
	e := sim.NewEngine()
	d := NewDaemon(e, 1.0)
	d.SetContentionOverhead(0.06)
	d.SetMemoryCapacity(16 << 30)
	d.Pull(Image{Ref: "img:1"})
	ids := make([]string, 0, n)
	for i := 0; i < n; i++ {
		// Totals far beyond what the benchmark can deliver: nothing ever
		// completes, so the pool size stays pinned at n.
		w := &memJob{
			fakeJob: fakeJob{total: 1e15, demand: 1},
			memory:  float64((16 << 30) / (2 * n)),
		}
		c, err := d.Run(RunSpec{Image: "img:1", Workload: w})
		if err != nil {
			b.Fatal(err)
		}
		ids = append(ids, c.ID())
	}
	return e, d, ids
}

// BenchmarkSettle measures one accounting settlement across the pool: an
// event fires, virtual time advances, and every running container's work
// is integrated. RunningCount/MemoryUsed reads inside are O(1) cached.
func BenchmarkSettle(b *testing.B) {
	for _, n := range poolSizes {
		b.Run(fmt.Sprintf("%d", n), func(b *testing.B) {
			e, d, _ := benchDaemon(b, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.At(e.Now()+0.001, sim.PriorityMetric, "sync", d.Sync)
				e.Run(e.Now() + 0.001)
			}
		})
	}
}

// BenchmarkReallocate measures the full settle+reallocate+reschedule cycle
// through the `docker update` path for a one-update plan: the update, then
// the instant's reallocation event.
func BenchmarkReallocate(b *testing.B) {
	for _, n := range poolSizes {
		b.Run(fmt.Sprintf("%d", n), func(b *testing.B) {
			e, d, ids := benchDaemon(b, n)
			limits := [2]float64{0.5, 0.6}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := d.Update(ids[i%n], limits[i%2]); err != nil {
					b.Fatal(err)
				}
				e.Run(e.Now())
			}
		})
	}
}

// BenchmarkPlanApply measures one Algorithm 1 plan as the daemon applies
// it: n/2 limit updates at one instant, then the instant drains — the
// whole plan costs one water-fill.
func BenchmarkPlanApply(b *testing.B) {
	for _, n := range poolSizes {
		b.Run(fmt.Sprintf("%d", n), func(b *testing.B) {
			e, d, ids := benchDaemon(b, n)
			limits := [2]float64{0.5, 0.6}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := 0; j < n/2; j++ {
					if err := d.Update(ids[j], limits[(i+j)%2]); err != nil {
						b.Fatal(err)
					}
				}
				e.Run(e.Now())
			}
		})
	}
}

// BenchmarkCheckpointRestore measures one freeze+thaw round trip against
// a standing pool of n: Checkpoint settles accounting, removes the
// container and reallocates; Restore runs it again. This is the
// daemon-side cost of one live migration (the virtual freeze/transfer/
// thaw delay is free), ladder-tracked in BENCH_sim.json alongside the
// manager-level Migrate benchmark in internal/migrate.
func BenchmarkCheckpointRestore(b *testing.B) {
	for _, n := range poolSizes {
		b.Run(fmt.Sprintf("%d", n), func(b *testing.B) {
			_, d, ids := benchDaemon(b, n)
			id := ids[0]
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cp, err := d.Checkpoint(id)
				if err != nil {
					b.Fatal(err)
				}
				c, err := d.Restore(cp)
				if err != nil {
					b.Fatal(err)
				}
				id = c.ID()
			}
		})
	}
}

// BenchmarkRunStop measures container churn: a short-lived container
// starting and stopping against a standing pool of n-1 — placement-time
// name-uniqueness checks and aggregate updates are O(1)/O(log n).
func BenchmarkRunStop(b *testing.B) {
	for _, n := range poolSizes {
		b.Run(fmt.Sprintf("%d", n), func(b *testing.B) {
			_, d, _ := benchDaemon(b, n-1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c, err := d.Run(RunSpec{Image: "img:1", Workload: &fakeJob{total: 1e15, demand: 1}})
				if err != nil {
					b.Fatal(err)
				}
				if err := d.Stop(c.ID()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

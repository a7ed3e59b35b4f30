package cluster

import (
	"fmt"
	"testing"

	"repro/internal/dlmodel"
	"repro/internal/sim"
)

// placeSink keeps the benchmarked placement calls from being optimized
// away.
var placeSink *Worker

// loadedWorkers stands up w simulated workers in the megacluster shape:
// 1–5 running containers each under a cap of 8.
func loadedWorkers(b *testing.B, w int) []*Worker {
	b.Helper()
	e := sim.NewEngine()
	job := endlessProfile(512 << 20)
	workers := make([]*Worker, w)
	for i := range workers {
		name := fmt.Sprintf("worker-%d", i)
		wk, _ := NewSimWorker(name, e, 4.0)
		wk.SetMaxContainers(8)
		for j := 0; j <= i%5; j++ {
			id := fmt.Sprintf("%s-j%d", name, j)
			if _, err := wk.LaunchJob(id, dlmodel.NewJob(id, job)); err != nil {
				b.Fatal(err)
			}
		}
		workers[i] = wk
	}
	return workers
}

// BenchmarkLeastLoaded measures one default placement scan over w loaded
// workers — the manager's per-arrival serial step.
func BenchmarkLeastLoaded(b *testing.B) {
	for _, w := range []int{256, 1000} {
		b.Run(fmt.Sprintf("%d", w), func(b *testing.B) {
			workers := loadedWorkers(b, w)
			p := dlmodel.MNISTPyTorch()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				placeSink = LeastLoaded(workers, p)
			}
		})
	}
}

// BenchmarkBinPackMemory measures one consolidating placement scan over
// 1000 loaded workers.
func BenchmarkBinPackMemory(b *testing.B) {
	b.Run("1000", func(b *testing.B) {
		workers := loadedWorkers(b, 1000)
		p := dlmodel.MNISTPyTorch()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			placeSink = BinPackMemory(workers, p)
		}
	})
}

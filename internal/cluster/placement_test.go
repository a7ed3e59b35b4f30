package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/dlmodel"
	"repro/internal/runtime"
	"repro/internal/sim"
)

// refLeastLoaded is the straightforward scan LeastLoaded must agree with:
// every worker is asked CanHost, and the first minimum by RunningCount
// among the hosting-capable ones wins.
func refLeastLoaded(workers []*Worker, p dlmodel.Profile) *Worker {
	var best *Worker
	for _, w := range workers {
		if !w.CanHost(p) {
			continue
		}
		if best == nil || w.RunningCount() < best.RunningCount() {
			best = w
		}
	}
	return best
}

// refBinPackMemory is the straightforward scan BinPackMemory must agree
// with, NaN comparisons included.
func refBinPackMemory(workers []*Worker, p dlmodel.Profile) *Worker {
	var best *Worker
	for _, w := range workers {
		if !w.CanHost(p) {
			continue
		}
		if best == nil || w.MemoryFree() < best.MemoryFree() {
			best = w
		}
	}
	return best
}

// endlessProfile never finishes, so launched containers stay running for
// the whole test without the engine advancing.
func endlessProfile(memBytes float64) dlmodel.Profile {
	return dlmodel.Profile{
		Name:         "Endless",
		Framework:    dlmodel.PyTorch,
		EvalFunction: "Squared Loss",
		Direction:    dlmodel.Decreasing,
		TotalWork:    1e12,
		Curve:        dlmodel.ExpCurve{Start: 100, Final: 1, K: 1e-6},
		CPUDemand:    1.0,
		MemoryBytes:  memBytes,
	}
}

// nanMemory reports a NaN resident footprint, which the simulated daemon
// never does; it pins the NaN ordering BinPackMemory must share with its
// reference scan.
type nanMemory struct{ runtime.Runtime }

func (nanMemory) MemoryUsed() float64 { return math.NaN() }

// randomWorkers builds n workers in random admission states: 0–4 running
// containers of one of two footprints (so counts and free memory tie
// often), unmodelled / tight / roomy node memory, and some failed,
// cordoned, at their container cap or reporting NaN memory.
func randomWorkers(t *testing.T, rng *rand.Rand, n int) []*Worker {
	t.Helper()
	e := sim.NewEngine()
	workers := make([]*Worker, n)
	for i := range workers {
		name := fmt.Sprintf("w%d", i)
		w, d := NewSimWorker(name, e, 1.0)
		d.SetMemoryCapacity([]float64{0, 2 << 30, 3 << 30, DefaultMemoryBytes}[rng.Intn(4)])
		if rng.Intn(8) == 0 {
			w = NewWorker(name, nanMemory{w.Runtime})
		}
		running := rng.Intn(5)
		job := endlessProfile([]float64{512 << 20, 1 << 30}[rng.Intn(2)])
		for j := 0; j < running; j++ {
			id := fmt.Sprintf("%s-j%d", name, j)
			if _, err := w.LaunchJob(id, dlmodel.NewJob(id, job)); err != nil {
				t.Fatal(err)
			}
		}
		switch rng.Intn(8) {
		case 0:
			w.Fail()
		case 1:
			w.Cordon()
		case 2:
			w.SetMaxContainers(running) // 0 when idle: unlimited
		case 3:
			w.SetMaxContainers(running + 1)
		}
		workers[i] = w
	}
	return workers
}

// TestPlacementMatchesReferenceScan pins the single-read placements to the
// scans they replace: over random clusters full of ties, failed, cordoned,
// capped and memory-full workers, every pick is the same worker.
func TestPlacementMatchesReferenceScan(t *testing.T) {
	queries := []dlmodel.Profile{
		endlessProfile(0),
		endlessProfile(512 << 20),
		endlessProfile(1 << 30),
		endlessProfile(2 << 30),
	}
	placements := []struct {
		name     string
		got, ref Placement
	}{
		{"LeastLoaded", LeastLoaded, refLeastLoaded},
		{"BinPackMemory", BinPackMemory, refBinPackMemory},
	}
	for _, n := range []int{1, 2, 17, 256} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("W=%d/seed=%d", n, seed), func(t *testing.T) {
				workers := randomWorkers(t, rand.New(rand.NewSource(seed)), n)
				for _, pl := range placements {
					for _, p := range queries {
						got, want := pl.got(workers, p), pl.ref(workers, p)
						if got != want {
							t.Errorf("%s(%.0f MB) = %s, reference scan picks %s",
								pl.name, p.MemoryBytes/(1<<20), nameOf(got), nameOf(want))
						}
					}
				}
			})
		}
	}
}

func nameOf(w *Worker) string {
	if w == nil {
		return "<nil>"
	}
	return w.Name()
}

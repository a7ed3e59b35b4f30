package cluster

import (
	"testing"

	"repro/internal/dlmodel"
	"repro/internal/runtime"
	"repro/internal/runtime/runtimetest"
	"repro/internal/sim"
)

// TestRuntimeConformance runs the shared runtime.Runtime suite, with the
// checkpoint/restore pair, against cluster.Worker — the wrapping
// implementation the manager schedules onto — backed by a simdocker
// daemon under the simulation clock.
func TestRuntimeConformance(t *testing.T) {
	runtimetest.RunMigratable(t, func(t *testing.T) *runtimetest.Env[*Worker] {
		e := sim.NewEngine()
		w, _ := NewSimWorker("conf-w", e, 1.0)
		now := sim.Time(0)
		return &runtimetest.Env[*Worker]{
			RT: w,
			Spec: func(name string) runtime.LaunchSpec {
				return runtime.LaunchSpec{
					Name:     name,
					Workload: dlmodel.NewJob(name, dlmodel.MNISTPyTorch()),
				}
			},
			Advance: func(seconds float64) {
				now += sim.Time(seconds)
				e.Run(now)
			},
		}
	})
}

package simdocker_test

import (
	"testing"

	"repro/internal/dlmodel"
	"repro/internal/runtime"
	"repro/internal/runtime/runtimetest"
	"repro/internal/sim"
	"repro/internal/simdocker"
)

// TestRuntimeConformance runs the shared runtime.Runtime suite, with the
// checkpoint/restore pair, against the deterministic simulator backend
// under the simulation clock.
func TestRuntimeConformance(t *testing.T) {
	runtimetest.RunMigratable(t, func(t *testing.T) *runtimetest.Env[*simdocker.RT] {
		e := sim.NewEngine()
		d := simdocker.NewDaemon(e, 1.0)
		d.Pull(simdocker.Image{Ref: "conf/img:1", SizeBytes: 100 << 20})
		rt := simdocker.NewRuntime(d)
		now := sim.Time(0)
		return &runtimetest.Env[*simdocker.RT]{
			RT: rt,
			Spec: func(name string) runtime.LaunchSpec {
				return runtime.LaunchSpec{
					Name:     name,
					Image:    "conf/img:1",
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

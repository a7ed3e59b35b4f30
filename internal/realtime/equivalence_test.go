package realtime

import (
	"math"
	"testing"

	"repro/internal/flowcon"
	"repro/internal/sim"
)

// span is one scripted container: running in [from, to) seconds at half a
// core, its evaluation decaying as 100·e^(-age/tau) (tau = +Inf stalls).
type span struct {
	id       string
	from, to float64
	tau      float64
}

func (s span) runningAt(t float64) bool { return t >= s.from && t < s.to }

func scriptStats(script []span, t float64) []flowcon.Stat {
	var out []flowcon.Stat
	for _, s := range script {
		if s.runningAt(t) {
			age := t - s.from
			out = append(out, flowcon.Stat{ID: s.id, Eval: 100 * math.Exp(-age/s.tau), CPUSeconds: 0.5 * age})
		}
	}
	return out
}

// limitOf is the limit a container runs at: the last one applied, or the
// full limit it launched with.
func (f *fakeRuntime) limitOf(id string) float64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	if l, ok := f.limits[id]; ok {
		return l
	}
	return 1
}

// TestControllerAndDriverAgree feeds one scripted pool to both triggers of
// flowcon's cycle: a Controller on a sim.Engine whose listeners hear every
// start and exit, and a Driver polled at the same whole seconds. Changes
// fall on whole seconds and no arrival coincides with a departure, so the
// driver's count poll sees every change the listeners hear, and both run
// Algorithm 1 at the same instants. After every instant they must agree
// on the run count, the interval, each container's list and the limit it
// runs at.
//
// One difference is known and allowed for: a Controller that heard a start
// records the launch limit 1 and skips the no-op SetCPULimit(1) that the
// Driver issues on its first run over the container. limitOf therefore
// reads an unset limit as 1.
func TestControllerAndDriverAgree(t *testing.T) {
	inf := math.Inf(1)
	script := []span{
		{id: "grow", from: 5, to: 200, tau: 400},     // stays in NL
		{id: "converge", from: 12, to: inf, tau: 30}, // NL → WL → CL
		{id: "depart", from: 50, to: 130, tau: 100},  // a departure
		{id: "stall", from: 333, to: inf, tau: inf},  // arrives into a backed-off pool
		{id: "late", from: 361, to: 690, tau: 40},    // leaves an all-CL pool
	}
	cfg := flowcon.Config{Alpha: 0.05, InitialInterval: 20}

	eng := sim.NewEngine()
	simRT := newFakeRuntime()
	ctrl := flowcon.NewController(cfg, eng, simRT, nil)
	ctrl.Start()

	liveRT := newFakeRuntime()
	drv := NewDriver(cfg, liveRT)

	sawCL, sawBackoff := false, false
	for sec := 0; sec <= 800; sec++ {
		now := float64(sec)
		eng.At(sim.Time(now), sim.PriorityState, "script", func() {
			simRT.set(scriptStats(script, now))
			for _, s := range script {
				switch {
				case s.from == now:
					ctrl.OnContainerStart(s.id)
				case s.to == now:
					ctrl.OnContainerExit(s.id)
				}
			}
		})
		eng.Run(sim.Time(now))

		liveRT.set(scriptStats(script, now))
		drv.Step(now)

		if c, d := ctrl.Runs(), drv.Runs(); c != d {
			t.Fatalf("t=%v: controller ran %d times, driver %d", now, c, d)
		}
		if c, d := ctrl.Interval(), drv.Interval(); c != d {
			t.Fatalf("t=%v: controller interval %v, driver %v", now, c, d)
		}
		sawBackoff = sawBackoff || ctrl.Interval() > cfg.InitialInterval
		for _, s := range script {
			cl, cok := ctrl.ListOf(s.id)
			dl, dok := drv.ListOf(s.id)
			if cl != dl || cok != dok {
				t.Fatalf("t=%v: %s listed %v (%v) by the controller, %v (%v) by the driver", now, s.id, cl, cok, dl, dok)
			}
			sawCL = sawCL || cl == flowcon.CompletingList
			if c, d := simRT.limitOf(s.id), liveRT.limitOf(s.id); c != d {
				t.Fatalf("t=%v: %s limit %v under the controller, %v under the driver", now, s.id, c, d)
			}
		}
	}
	if !sawCL || !sawBackoff || ctrl.Runs() < 20 {
		t.Fatalf("script too tame: CL %v, back-off %v, %d runs", sawCL, sawBackoff, ctrl.Runs())
	}
}

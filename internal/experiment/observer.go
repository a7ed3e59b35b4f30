package experiment

import (
	"repro/internal/flowcon"
	"repro/internal/runtime"
	"repro/internal/sched"
	"repro/internal/sim"
)

// observedNA is the NA baseline plus a passive growth-efficiency observer:
// it runs the full FlowCon measurement pipeline (monitor, classification,
// tracing) on the executor interval but never applies a limit, so the
// containers compete exactly as under plain Docker while G is still
// recorded. The paper's Figures 13/14 plot growth efficiency for NA, which
// implies the same offline instrumentation.
type observedNA struct {
	itval  float64
	tracer flowcon.Tracer
}

// Name implements sched.Policy.
func (o *observedNA) Name() string { return "NA" }

// Attach implements sched.Policy.
func (o *observedNA) Attach(engine sim.Scheduler, node sched.Node) {
	if o.itval <= 0 {
		o.itval = 20
	}
	ro := readOnlyNode{node}
	ctrl := flowcon.NewController(flowcon.Config{
		Alpha:           0.05, // classification still traced; limits never applied
		Beta:            2,
		InitialInterval: o.itval,
	}, engine, ro, o.tracer)
	node.OnStart(func(c runtime.Container) { ctrl.OnContainerStart(c.ID) })
	node.OnExit(func(c runtime.Container) { ctrl.OnContainerExit(c.ID) })
	ctrl.Start()
}

// readOnlyNode passes stats through but swallows limit updates.
type readOnlyNode struct{ inner sched.Node }

// RunningStats implements flowcon.Runtime.
func (r readOnlyNode) RunningStats() []flowcon.Stat { return r.inner.RunningStats() }

// SetCPULimit implements flowcon.Runtime as a no-op: NA never configures
// containers.
func (r readOnlyNode) SetCPULimit(string, float64) error { return nil }

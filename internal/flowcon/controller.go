package flowcon

import (
	"slices"
	"strings"

	"repro/internal/sim"
)

// TraceEntry records one Algorithm 1 run for offline analysis; the metrics
// package stores these to regenerate Figures 13-14 (growth efficiency over
// time) and the scheduling-overhead ablations.
type TraceEntry struct {
	At            sim.Time
	Trigger       string // "tick", "arrival", "departure", "initial"
	AllCompleting bool
	Interval      float64 // interval in effect after this run
	Containers    []TraceContainer
}

// TraceContainer is one container's state within a TraceEntry.
type TraceContainer struct {
	ID       string
	G        float64
	GDefined bool
	List     List
	Limit    float64 // effective limit after this run
}

// Tracer receives a TraceEntry after every Algorithm 1 run.
type Tracer interface {
	RecordRun(TraceEntry)
}

// Controller is the worker-side FlowCon middleware, in the simulator and
// in the live worker alike. It runs its Cycle on the executor interval as
// an engine event and implements Algorithm 2's listeners through the
// runtime's arrival/exit notifications. Everything it does happens on the
// goroutine that runs its engine.
type Controller struct {
	*Cycle
	engine sim.Scheduler
	tracer Tracer

	tick       *sim.Event
	tickFn     func()
	pendingRun bool
}

// NewController wires a controller to an engine and runtime. Call Start to
// schedule the first executor tick.
func NewController(cfg Config, engine sim.Scheduler, rt Runtime, tracer Tracer) *Controller {
	cycle := NewCycle(cfg, rt)
	if engine == nil {
		panic("flowcon: nil engine")
	}
	return &Controller{Cycle: cycle, engine: engine, tracer: tracer}
}

// Start schedules the first executor tick. Containers already running are
// picked up by the first run.
func (c *Controller) Start() {
	c.scheduleTick()
}

// OnContainerStart is the New Cons listener (Algorithm 2 lines 5-9): the
// new container joins NL, the interval resets, and Algorithm 1 runs
// immediately — scheduled at listener priority so it observes the
// post-arrival pool within the same instant.
func (c *Controller) OnContainerStart(id string) {
	c.Started(id)
	c.requestImmediateRun("arrival")
}

// OnContainerExit is the Finished Cons listener (Algorithm 2 lines 10-15):
// the container leaves whichever list held it, the interval resets, and
// Algorithm 1 runs immediately.
func (c *Controller) OnContainerExit(id string) {
	c.Exited(id)
	c.requestImmediateRun("departure")
}

// requestImmediateRun schedules a listener-priority Algorithm 1 run at the
// current instant, deduplicating multiple pool changes within one instant.
func (c *Controller) requestImmediateRun(trigger string) {
	if c.pendingRun {
		return
	}
	c.pendingRun = true
	c.engine.At(c.engine.Now(), sim.PriorityListener, "flowcon.listener", func() {
		c.pendingRun = false
		c.runAlgorithm1(trigger)
	})
}

// scheduleTick (re)schedules the periodic executor run itval seconds out.
// The callback closure is built once and reused, so a reschedule costs
// exactly one Event allocation.
func (c *Controller) scheduleTick() {
	if c.tick != nil {
		c.tick.Cancel()
	}
	if c.tickFn == nil {
		c.tickFn = func() {
			c.tick = nil
			c.runAlgorithm1("tick")
		}
	}
	c.tick = c.engine.After(c.itval, sim.PriorityExecutor, "flowcon.tick", c.tickFn)
}

// runAlgorithm1 runs the cycle at the current instant, reschedules the
// tick on the interval it left, and traces the run.
func (c *Controller) runAlgorithm1(trigger string) {
	res := c.Run(float64(c.engine.Now()), c.runtime.RunningStats())
	c.scheduleTick()
	if c.tracer != nil {
		c.tracer.RecordRun(c.traceEntry(trigger, res, c.snapScratch))
	}
}

// traceEntry assembles the per-run trace record in a stable order.
// stepInto emits Decisions[i] for snaps[i], so each decision's growth
// efficiency is read by position.
func (c *Controller) traceEntry(trigger string, res StepResult, snaps []JobSnapshot) TraceEntry {
	entry := TraceEntry{
		At:            c.engine.Now(),
		Trigger:       trigger,
		AllCompleting: res.AllCompleting,
		Interval:      c.itval,
	}
	if n := len(res.Decisions); n > 0 { // an empty run keeps a nil slice
		entry.Containers = make([]TraceContainer, 0, n)
	}
	for i, d := range res.Decisions {
		s := snaps[i]
		entry.Containers = append(entry.Containers, TraceContainer{
			ID:       d.ID,
			G:        s.G,
			GDefined: s.GDefined,
			List:     d.List,
			Limit:    c.limits[d.ID],
		})
	}
	slices.SortFunc(entry.Containers, func(a, b TraceContainer) int {
		return strings.Compare(a.ID, b.ID)
	})
	return entry
}

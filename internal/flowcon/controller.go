package flowcon

import "repro/internal/sim"

// TraceEntry records one Algorithm 1 run for offline analysis; the metrics
// package stores these to regenerate Figures 13-14 (growth efficiency over
// time) and the scheduling-overhead ablations.
type TraceEntry struct {
	At            sim.Time
	Trigger       string // "tick", "arrival", "departure", "initial"
	AllCompleting bool
	Interval      float64 // interval in effect after this run
	// Containers lists the run's containers in decision order. It is a
	// buffer the controller reuses: valid only during RecordRun, so a
	// tracer that keeps it must copy it.
	Containers []TraceContainer
}

// TraceContainer is one container's state within a TraceEntry.
type TraceContainer struct {
	ID       string
	G        float64
	GDefined bool
	List     List
	Limit    float64 // effective limit after this run
}

// Tracer receives a TraceEntry after every Algorithm 1 run. The entry's
// Containers are valid only during RecordRun.
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

	tick   *sim.Event
	tickFn func()
	// listenFn is the listener-priority run, built once like tickFn;
	// pending is its trigger while one is scheduled, "" otherwise.
	listenFn func()
	pending  string
	// traceBuf backs every TraceEntry's Containers.
	traceBuf []TraceContainer
}

// NewController wires a controller to an engine and runtime. Call Start to
// schedule the first executor tick.
func NewController(cfg Config, engine sim.Scheduler, rt Runtime, tracer Tracer) *Controller {
	cycle := NewCycle(cfg, rt)
	if engine == nil {
		panic("flowcon: nil engine")
	}
	c := &Controller{Cycle: cycle, engine: engine, tracer: tracer}
	c.tickFn = func() {
		c.tick = nil
		c.runAlgorithm1("tick")
	}
	c.listenFn = func() {
		trigger := c.pending
		c.pending = ""
		c.runAlgorithm1(trigger)
	}
	return c
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
// current instant, deduplicating multiple pool changes within one instant:
// the run takes the first change's trigger. It costs one Event allocation.
func (c *Controller) requestImmediateRun(trigger string) {
	if c.pending != "" {
		return
	}
	c.pending = trigger
	c.engine.At(c.engine.Now(), sim.PriorityListener, "flowcon.listener", c.listenFn)
}

// scheduleTick (re)schedules the periodic executor run itval seconds out,
// at the cost of one Event allocation.
func (c *Controller) scheduleTick() {
	if c.tick != nil {
		c.tick.Cancel()
	}
	c.tick = c.engine.After(c.itval, sim.PriorityExecutor, "flowcon.tick", c.tickFn)
}

// runAlgorithm1 runs the cycle at the current instant, reschedules the
// tick on the interval it left, and traces the run.
func (c *Controller) runAlgorithm1(trigger string) {
	res := c.Run(float64(c.engine.Now()), c.runtime.RunningStats())
	c.scheduleTick()
	if c.tracer != nil {
		c.tracer.RecordRun(c.traceEntry(trigger, res))
	}
}

// traceEntry assembles the per-run trace record in decision order, in
// traceBuf. stepInto emits Decisions[i] for snapScratch[i], the container
// in slot i, so each decision's growth efficiency and applied limit are
// read by position.
func (c *Controller) traceEntry(trigger string, res StepResult) TraceEntry {
	entry := TraceEntry{
		At:            c.engine.Now(),
		Trigger:       trigger,
		AllCompleting: res.AllCompleting,
		Interval:      c.itval,
	}
	buf := c.traceBuf[:0]
	for i, d := range res.Decisions {
		s := c.snapScratch[i]
		buf = append(buf, TraceContainer{
			ID:       d.ID,
			G:        s.G,
			GDefined: s.GDefined,
			List:     d.List,
			Limit:    c.slots[i].limit,
		})
	}
	c.traceBuf = buf
	if len(buf) > 0 { // an empty run keeps a nil slice
		entry.Containers = buf
	}
	return entry
}

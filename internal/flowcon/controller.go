package flowcon

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/sim"
)

// Runtime is the container-platform surface the Executor drives. The
// simulated daemon implements it via a thin adapter; a real Docker client
// could too.
type Runtime interface {
	// RunningStats returns settled counters for every running container.
	RunningStats() []Stat
	// SetCPULimit applies a soft CPU limit (docker update --cpus).
	SetCPULimit(id string, limit float64) error
}

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

// Controller is the worker-side FlowCon middleware: it owns the container
// monitor, runs Algorithm 1 on the executor interval, and implements
// Algorithm 2's listeners through runtime arrival/exit notifications.
type Controller struct {
	cfg     Config
	engine  sim.Scheduler
	runtime Runtime
	monitor *Monitor
	tracer  Tracer

	lists  map[string]List
	limits map[string]float64

	itval       float64
	tick        *sim.Event
	tickFn      func()
	pendingRun  bool
	runs        int
	limitUpdate int

	// snapScratch, liveScratch and stepScratch are reused across
	// runAlgorithm1 calls so the per-tick hot path allocates nothing in
	// steady state.
	snapScratch []JobSnapshot
	liveScratch map[string]bool
	stepScratch stepScratch
}

// NewController wires a controller to an engine and runtime. Call Start to
// schedule the first executor tick.
func NewController(cfg Config, engine sim.Scheduler, rt Runtime, tracer Tracer) *Controller {
	cfg = cfg.withDefaults()
	if engine == nil || rt == nil {
		panic("flowcon: nil engine or runtime")
	}
	monitor := NewMonitor()
	monitor.SetPrimaryResource(cfg.Resource)
	return &Controller{
		cfg:         cfg,
		engine:      engine,
		runtime:     rt,
		monitor:     monitor,
		tracer:      tracer,
		lists:       make(map[string]List),
		limits:      make(map[string]float64),
		itval:       cfg.InitialInterval,
		liveScratch: make(map[string]bool),
	}
}

// Config returns the controller's effective configuration.
func (c *Controller) Config() Config { return c.cfg }

// Runs returns how many times Algorithm 1 has executed (overhead metric).
func (c *Controller) Runs() int { return c.runs }

// LimitUpdates returns how many docker-update calls were issued.
func (c *Controller) LimitUpdates() int { return c.limitUpdate }

// Interval returns the current (possibly backed-off) interval.
func (c *Controller) Interval() float64 { return c.itval }

// ListOf returns the list a container is currently assigned to.
func (c *Controller) ListOf(id string) (List, bool) {
	l, ok := c.lists[id]
	return l, ok
}

// Lists returns a stable-order snapshot of container→list assignments.
func (c *Controller) Lists() map[string]List {
	out := make(map[string]List, len(c.lists))
	for id, l := range c.lists {
		out[id] = l
	}
	return out
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
	c.lists[id] = NewList
	c.limits[id] = 1
	c.itval = c.cfg.InitialInterval
	c.requestImmediateRun("arrival")
}

// OnContainerExit is the Finished Cons listener (Algorithm 2 lines 10-15):
// the container leaves whichever list held it, its resources return to the
// pool (the runtime does that implicitly on exit), the interval resets,
// and Algorithm 1 runs immediately.
func (c *Controller) OnContainerExit(id string) {
	delete(c.lists, id)
	delete(c.limits, id)
	c.monitor.Forget(id)
	c.itval = c.cfg.InitialInterval
	c.requestImmediateRun("departure")
}

// requestImmediateRun schedules a listener-priority Algorithm 1 run at the
// current instant, deduplicating multiple pool changes within one instant.
func (c *Controller) requestImmediateRun(trigger string) {
	if c.pendingRun {
		return
	}
	c.pendingRun = true
	c.engine.At(c.engine.Now(), sim.PriorityListener, "flowcon.listener."+trigger, func() {
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

// runAlgorithm1 performs one full executor cycle: measure, classify, plan,
// apply, and reschedule with back-off or reset interval.
func (c *Controller) runAlgorithm1(trigger string) {
	c.runs++
	stats := c.runtime.RunningStats()
	measurements := c.monitor.Collect(float64(c.engine.Now()), stats)

	c.pruneStale(measurements)

	snaps := c.snapScratch[:0]
	for _, m := range measurements {
		list, ok := c.lists[m.ID]
		if !ok {
			// Containers that started before the controller (or without
			// listener wiring) enter as new.
			list = NewList
		}
		snaps = append(snaps, JobSnapshot{ID: m.ID, List: list, G: m.G, GDefined: m.Defined})
	}
	c.snapScratch = snaps

	res := stepInto(snaps, c.cfg, &c.stepScratch)

	// Apply list moves and limit updates.
	for _, d := range res.Decisions {
		c.lists[d.ID] = d.List
		if !d.SetLimit {
			continue
		}
		cur, had := c.limits[d.ID]
		if had && cur == d.Limit {
			continue
		}
		if err := c.runtime.SetCPULimit(d.ID, d.Limit); err != nil {
			// The container may have exited in the same instant; that is
			// the only legal failure in the simulation.
			continue
		}
		c.limits[d.ID] = d.Limit
		c.limitUpdate++
	}

	c.itval = NextInterval(c.itval, res.AllCompleting, c.cfg)
	c.scheduleTick()

	if c.tracer != nil {
		c.tracer.RecordRun(c.traceEntry(trigger, res, snaps))
	}
}

// pruneStale drops tracking state for containers that vanished from the
// runtime's stats without a Finished Cons notification — e.g. a worker
// failure path that kills containers without driving the exit listener.
// Without this, c.lists/c.limits (and the monitor's samples) grow without
// bound on long-lived workers.
func (c *Controller) pruneStale(measurements []Measurement) {
	if len(c.lists) <= len(measurements) && len(c.limits) <= len(measurements) {
		return
	}
	clear(c.liveScratch)
	for _, m := range measurements {
		c.liveScratch[m.ID] = true
	}
	for id := range c.lists {
		if !c.liveScratch[id] {
			delete(c.lists, id)
			c.monitor.Forget(id)
		}
	}
	for id := range c.limits {
		if !c.liveScratch[id] {
			delete(c.limits, id)
		}
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

// String summarises controller state for debugging.
func (c *Controller) String() string {
	return fmt.Sprintf("flowcon.Controller{alpha=%.2g itval=%.3g runs=%d tracked=%d}",
		c.cfg.Alpha, c.itval, c.runs, len(c.lists))
}

package flowcon

// Runtime is the container-platform surface a Cycle drives. The
// simulated daemon implements it via a thin adapter; a real Docker client
// could too.
type Runtime interface {
	// RunningStats returns settled counters for every running container.
	RunningStats() []Stat
	// SetCPULimit applies a soft CPU limit (docker update --cpus).
	SetCPULimit(id string, limit float64) error
}

// Cycle is Algorithm 1's executor and the state it carries between runs:
// the container monitor, each container's list and applied limit, and the
// interval with its back-off. It does not decide when it runs: Controller
// runs it on engine events and start/exit notifications, in the simulator
// and, on an engine paced by the wall clock, in the live worker.
type Cycle struct {
	cfg     Config
	runtime Runtime
	monitor *Monitor

	lists  map[string]List
	limits map[string]float64 // every key is also a lists key

	itval       float64
	runs        int
	limitUpdate int

	// snapScratch and stepScratch are reused across runs so a steady
	// pool's cycle allocates nothing.
	snapScratch []JobSnapshot
	stepScratch stepScratch
}

// NewCycle validates cfg, filling its zero defaults, and returns a cycle
// that applies limits through rt.
func NewCycle(cfg Config, rt Runtime) *Cycle {
	cfg = cfg.withDefaults()
	if rt == nil {
		panic("flowcon: nil runtime")
	}
	return &Cycle{
		cfg:     cfg,
		runtime: rt,
		monitor: NewMonitor(),
		lists:   make(map[string]List),
		limits:  make(map[string]float64),
		itval:   cfg.InitialInterval,
	}
}

// Runs returns how many times Algorithm 1 has executed (overhead metric).
func (c *Cycle) Runs() int { return c.runs }

// LimitUpdates returns how many docker-update calls were issued.
func (c *Cycle) LimitUpdates() int { return c.limitUpdate }

// Interval returns the current (possibly backed-off) interval.
func (c *Cycle) Interval() float64 { return c.itval }

// ListOf returns the list a container is currently assigned to.
func (c *Cycle) ListOf(id string) (List, bool) {
	l, ok := c.lists[id]
	return l, ok
}

// ResetInterval returns the interval to its initial value, as both of
// Algorithm 2's listeners do on a pool change.
func (c *Cycle) ResetInterval() { c.itval = c.cfg.InitialInterval }

// Started is the New Cons listener's bookkeeping (Algorithm 2 lines 5-9):
// the container joins NL at the full limit it was launched with, and the
// interval resets.
func (c *Cycle) Started(id string) {
	c.lists[id] = NewList
	c.limits[id] = 1
	c.ResetInterval()
}

// Exited is the Finished Cons listener's bookkeeping (Algorithm 2 lines
// 10-15): the container leaves whichever list held it and the interval
// resets. Its resources return to the pool as the runtime retires it.
func (c *Cycle) Exited(id string) {
	delete(c.lists, id)
	delete(c.limits, id)
	c.monitor.Forget(id)
	c.ResetInterval()
}

// Run executes Algorithm 1 once at now (seconds) over stats, the
// runtime's current RunningStats: measure, classify and plan, apply the
// limits that changed, and back off or reset the interval. The returned
// Decisions alias scratch that is valid until the next Run.
func (c *Cycle) Run(now float64, stats []Stat) StepResult {
	c.runs++
	measurements := c.monitor.Collect(now, stats)

	snaps := c.snapScratch[:0]
	known := 0
	for _, m := range measurements {
		list, ok := c.lists[m.ID]
		if ok {
			known++
		} else {
			// Containers that started before the cycle, or that no
			// listener reported, enter as new.
			list = NewList
		}
		snaps = append(snaps, JobSnapshot{ID: m.ID, List: list, G: m.G, GDefined: m.Defined})
	}
	c.snapScratch = snaps
	if known < len(c.lists) {
		c.prune()
	}

	res := stepInto(snaps, c.cfg, &c.stepScratch)
	for _, d := range res.Decisions {
		c.lists[d.ID] = d.List
		if !d.SetLimit {
			continue
		}
		if cur, had := c.limits[d.ID]; had && cur == d.Limit {
			continue
		}
		if err := c.runtime.SetCPULimit(d.ID, d.Limit); err != nil {
			continue // the container exited between stats and update
		}
		c.limits[d.ID] = d.Limit
		c.limitUpdate++
	}

	c.itval = NextInterval(c.itval, res.AllCompleting, c.cfg)
	return res
}

// prune drops the list and limit of every container that left the stats
// before its exit hook was heard: a worker failure that kills containers
// behind the listener's back, or a live exit whose posted listener call
// has not run yet. Collect has already dropped them from the monitor.
func (c *Cycle) prune() {
	for id := range c.lists {
		if !c.monitor.tracks(id) {
			delete(c.lists, id)
			delete(c.limits, id)
		}
	}
}

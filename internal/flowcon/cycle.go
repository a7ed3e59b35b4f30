package flowcon

import "slices"

// Runtime is the container-platform surface a Cycle drives. The
// simulated daemon implements it via a thin adapter; a real Docker client
// could too.
type Runtime interface {
	// RunningStats returns settled counters for every running container,
	// in start order; a stop or an exit keeps the others' relative order.
	// The slice may alias the runtime's scratch and is valid until the
	// next call.
	RunningStats() []Stat
	// SetCPULimit applies a soft CPU limit (docker update --cpus). It
	// must not call the cycle's listeners before it returns.
	SetCPULimit(id string, limit float64) error
}

// Cycle is Algorithm 1's executor and the state it carries between runs:
// one slot per container, holding its list, applied limit and monitor
// window, and the interval with its back-off. It does not decide when it
// runs: Controller runs it on engine events and start/exit notifications,
// in the simulator and, on an engine paced by the wall clock, in the live
// worker.
type Cycle struct {
	cfg     Config
	runtime Runtime

	// slots are in the order of the last RunningStats, followed by the
	// starts heard since. Run rebuilds them into spare, then swaps.
	slots []slot
	spare []slot

	itval       float64
	runs        int
	limitUpdate int

	// snapScratch and stepScratch are reused across runs so a steady
	// pool's cycle allocates nothing.
	snapScratch []JobSnapshot
	stepScratch stepScratch
}

// slot is one container's state between runs.
type slot struct {
	id   string
	list List
	// limit is the limit last applied, known when limitSet; a limit is
	// re-applied only when it changes.
	limit    float64
	limitSet bool
	// window is the monitor's: the previous sample Eq. 1–2 difference
	// against.
	window window
}

// NewCycle validates cfg, filling its zero defaults, and returns a cycle
// that applies limits through rt.
func NewCycle(cfg Config, rt Runtime) *Cycle {
	cfg = cfg.withDefaults()
	if rt == nil {
		panic("flowcon: nil runtime")
	}
	return &Cycle{cfg: cfg, runtime: rt, itval: cfg.InitialInterval}
}

// Runs returns how many times Algorithm 1 has executed (overhead metric).
func (c *Cycle) Runs() int { return c.runs }

// LimitUpdates returns how many docker-update calls were issued.
func (c *Cycle) LimitUpdates() int { return c.limitUpdate }

// Interval returns the current (possibly backed-off) interval.
func (c *Cycle) Interval() float64 { return c.itval }

// ListOf returns the list a container is currently assigned to.
func (c *Cycle) ListOf(id string) (List, bool) {
	if k := c.find(id, 0); k >= 0 {
		return c.slots[k].list, true
	}
	return 0, false
}

// find returns the index of id's slot, searching from slot from (at most
// len(slots)) onwards and then wrapping around, or -1 if it has none.
func (c *Cycle) find(id string, from int) int {
	for k := from; k < len(c.slots); k++ {
		if c.slots[k].id == id {
			return k
		}
	}
	for k := 0; k < from; k++ {
		if c.slots[k].id == id {
			return k
		}
	}
	return -1
}

// ResetInterval returns the interval to its initial value, as both of
// Algorithm 2's listeners do on a pool change.
func (c *Cycle) ResetInterval() { c.itval = c.cfg.InitialInterval }

// Started is the New Cons listener's bookkeeping (Algorithm 2 lines 5-9):
// the container joins NL at the full limit it was launched with, and the
// interval resets.
func (c *Cycle) Started(id string) {
	k := c.find(id, 0)
	if k < 0 {
		k = len(c.slots)
		c.slots = append(c.slots, slot{id: id})
	}
	s := &c.slots[k]
	s.list, s.limit, s.limitSet = NewList, 1, true
	c.ResetInterval()
}

// Exited is the Finished Cons listener's bookkeeping (Algorithm 2 lines
// 10-15): the container leaves whichever list held it and the interval
// resets. Its resources return to the pool as the runtime retires it.
func (c *Cycle) Exited(id string) {
	if k := c.find(id, 0); k >= 0 {
		c.slots = slices.Delete(c.slots, k, k+1)
	}
	c.ResetInterval()
}

// Run executes Algorithm 1 once at now (seconds) over stats, the
// runtime's current RunningStats: measure, classify and plan, apply the
// limits that changed, and back off or reset the interval. The returned
// Decisions alias scratch that is valid until the next Run.
//
// Each stat takes its container's slot, looked up from just after the
// previous match, so a runtime that keeps start order costs O(n). A
// container with no slot (it started before the cycle, or no listener
// reported it) enters as new with no known limit. A slot whose container
// left the stats before its exit was heard (a worker failure that kills
// containers behind the listener's back, or a live exit whose posted
// listener call has not run yet) drops out.
func (c *Cycle) Run(now float64, stats []Stat) StepResult {
	c.runs++
	next := c.spare[:0]
	snaps := c.snapScratch[:0]
	from := 0
	var m Measurement
	for _, st := range stats {
		if k := c.find(st.ID, from); k >= 0 {
			next = append(next, c.slots[k])
			from = k + 1
		} else {
			next = append(next, slot{id: st.ID})
		}
		s := &next[len(next)-1]
		s.window.measure(now, st, &m)
		snaps = append(snaps, JobSnapshot{ID: st.ID, List: s.list, G: m.G, GDefined: m.Defined})
	}
	c.slots, c.spare = next, c.slots
	c.snapScratch = snaps

	res := stepInto(snaps, c.cfg, &c.stepScratch)
	for i, d := range res.Decisions {
		s := &c.slots[i]
		s.list = d.List
		if !d.SetLimit || s.limitSet && s.limit == d.Limit {
			continue
		}
		if err := c.runtime.SetCPULimit(d.ID, d.Limit); err != nil {
			continue // the container exited between stats and update
		}
		s.limit, s.limitSet = d.Limit, true
		c.limitUpdate++
	}

	c.itval = c.cfg.nextInterval(c.itval, res.AllCompleting)
	return res
}

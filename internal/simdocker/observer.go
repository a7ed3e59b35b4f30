package simdocker

import (
	"repro/internal/runtime"
	"repro/internal/sim"
)

// Fold is one container's read inputs as of a change to any of them.
// Until the next Fold of the same container its CPU seconds and work grow
// linearly from these values (see Daemon), so CPUAt and WorkAt rebuild
// what a read at any later instant would have returned, to the bit.
type Fold struct {
	// Stamp is the engine's Executed() count when the change was made. A
	// change made inside an event carries that event's index; one made
	// between events carries the index of the next. So any other event
	// with index k ran after the change exactly when Stamp ≤ k.
	Stamp uint64
	// State is the container's state after the change.
	State runtime.State
	// At is the daemon's last fold: CPUSeconds and Work hold at At.
	At sim.Time
	// CPUSeconds and Work are the container's cumulative CPU time and its
	// workload's work at At.
	CPUSeconds float64
	Work       float64
	// Alloc is the CPU share granted from At on (0 once exited), and
	// Efficiency the node's work-delivery efficiency.
	Alloc      float64
	Efficiency float64
}

// CPUAt returns the cumulative CPU seconds a read at t ≥ f.At returns
// (Container.CPUSeconds, AppendRunningStats): the daemon's own
// expression, accrued.
func (f *Fold) CPUAt(t sim.Time) float64 {
	return f.CPUSeconds + f.Alloc*float64(t-f.At)
}

// WorkAt returns the work a read at t ≥ f.At extrapolates the workload
// to, by the same expression: AppendRunningStats reports the workload's
// EvalAt of it.
func (f *Fold) WorkAt(t sim.Time) float64 {
	return f.Work + f.Alloc*float64(t-f.At)*f.Efficiency
}

// Observer is told of every change to the inputs of a container's
// reads, in the order the daemon makes them: the dense metrics tier
// rebuilds its CPU and evaluation series from these calls instead of
// reading every container every period. Calls come from inside daemon
// operations; an observer must not call back into the daemon.
type Observer interface {
	// Folded reports c's read inputs after a change: its start, every
	// fold and reallocation (one call per running container), and its
	// exit.
	Folded(c *Container, f Fold)
	// Removed reports that c left the pool (`docker rm`, a checkpoint
	// freeze, or a repair reaping a crashed worker's husks), at stamp.
	Removed(c *Container, stamp uint64)
}

// SetObserver installs the daemon's one observer and reports every
// container already in the pool to it, running and exited, in creation
// order, so an observer installed after launching misses nothing. A nil
// observer switches observation off. The daemon has none by default,
// and then its hot path does no observer work.
func (d *Daemon) SetObserver(o Observer) {
	d.observer = o
	if o == nil {
		return
	}
	eff := d.efficiency(d.running)
	for _, id := range d.order {
		c := d.containers[id]
		o.Folded(c, d.fold(c, eff))
	}
}

// fold captures c's read inputs now, at node efficiency eff.
func (d *Daemon) fold(c *Container, eff float64) Fold {
	return Fold{
		Stamp:      d.engine.Executed(),
		State:      c.state,
		At:         d.lastAdvance,
		CPUSeconds: c.cpuSeconds,
		Work:       c.workload.Work(),
		Alloc:      c.alloc,
		Efficiency: eff,
	}
}

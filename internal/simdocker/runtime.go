package simdocker

import (
	"repro/internal/flowcon"
	"repro/internal/runtime"
)

// RT adapts a Daemon to the backend-neutral runtime.Migratable interface —
// the view cluster.Worker, the manager and the rebalancer drive. Like
// the daemon itself it is not thread-safe: all calls belong on the
// simulation goroutine.
//
// RT owns the scratch buffer behind RunningStats, so the Algorithm 1
// hot path stays allocation-free at steady state. Its hooks register on
// the daemon itself, each wrapped to receive the Container view, so the
// daemon holds the one list of lifecycle subscribers and fires them in
// registration order, whether they subscribed through RT or directly.
type RT struct {
	d *Daemon

	statScratch []flowcon.Stat
}

var _ runtime.Migratable = (*RT)(nil)

// NewRuntime wraps a daemon in its runtime.Runtime adapter.
func NewRuntime(d *Daemon) *RT { return &RT{d: d} }

// view snapshots a container into the backend-neutral value form, as of
// now: CPU seconds and work include what accrued since the daemon's last
// fold, and the read changes no state.
func view(c *Container) runtime.Container {
	v := runtime.Container{
		ID:          c.id,
		Name:        c.name,
		CPULimit:    c.cpuLimit,
		CPUAlloc:    c.alloc,
		CPUSeconds:  c.cpuSeconds,
		MemoryBytes: c.memBytes,
		StartedAt:   float64(c.startedAt),
		FinishedAt:  float64(c.finishedAt),
		Done:        c.workload.Done(),
		Work:        c.workload.Work(),
		State:       c.state,
	}
	if c.state == runtime.Running {
		d := c.d
		cpu, work := accrued(c, d.elapsed(), d.efficiency(d.running))
		v.CPUSeconds += cpu
		v.Work += min(work, c.workload.Remaining())
	}
	return v
}

// Capacity implements runtime.Runtime.
func (rt *RT) Capacity() float64 { return rt.d.Capacity() }

// MemoryCapacity implements runtime.Runtime.
func (rt *RT) MemoryCapacity() float64 { return rt.d.MemoryCapacity() }

// MemoryUsed implements runtime.Runtime.
func (rt *RT) MemoryUsed() float64 { return rt.d.MemoryUsed() }

// RunningCount implements runtime.Runtime.
func (rt *RT) RunningCount() int { return rt.d.RunningCount() }

// Launch implements runtime.Runtime via `docker run`. The simulated
// backend hosts the workload in-process, so spec.Workload is required
// and spec.Model is ignored.
func (rt *RT) Launch(spec runtime.LaunchSpec) (runtime.Container, error) {
	c, err := rt.d.Run(RunSpec{
		Name:     spec.Name,
		Workload: spec.Workload,
		CPULimit: spec.CPULimit,
	})
	if err != nil {
		return runtime.Container{}, err
	}
	return view(c), nil
}

// Stop implements runtime.Runtime.
func (rt *RT) Stop(id string) error { return rt.d.Stop(id) }

// Remove implements runtime.Runtime.
func (rt *RT) Remove(id string) error { return rt.d.Remove(id) }

// SetCPULimit implements runtime.Runtime via `docker update`.
func (rt *RT) SetCPULimit(id string, limit float64) error {
	return rt.d.Update(id, limit)
}

// Lookup implements runtime.Runtime.
func (rt *RT) Lookup(name string) (runtime.Container, error) {
	c, err := rt.d.Lookup(name)
	if err != nil {
		return runtime.Container{}, err
	}
	return view(c), nil
}

// PS implements runtime.Runtime: the views are built in one pass over
// the daemon's creation order (or its running list), into the one slice
// returned.
func (rt *RT) PS(all bool) []runtime.Container {
	d := rt.d
	if !all {
		out := make([]runtime.Container, len(d.runningList))
		for i, c := range d.runningList {
			out[i] = view(c)
		}
		return out
	}
	out := make([]runtime.Container, len(d.order))
	for i, id := range d.order {
		out[i] = view(d.containers[id])
	}
	return out
}

// RunningStats implements runtime.Runtime. The returned slice aliases
// the adapter's scratch buffer and is only valid until the next call.
func (rt *RT) RunningStats() []flowcon.Stat {
	rt.statScratch = rt.d.AppendRunningStats(rt.statScratch[:0])
	return rt.statScratch
}

// Checkpoint implements runtime.Migratable.
func (rt *RT) Checkpoint(id string) (*runtime.Checkpoint, error) {
	return rt.d.Checkpoint(id)
}

// Restore implements runtime.Migratable.
func (rt *RT) Restore(cp *runtime.Checkpoint) (runtime.Container, error) {
	c, err := rt.d.Restore(cp)
	if err != nil {
		return runtime.Container{}, err
	}
	return view(c), nil
}

// OnStart implements runtime.Runtime on the daemon's start hooks.
func (rt *RT) OnStart(fn func(runtime.Container)) {
	rt.d.OnStart(func(c *Container) { fn(view(c)) })
}

// OnExit implements runtime.Runtime on the daemon's exit hooks.
func (rt *RT) OnExit(fn func(runtime.Container)) {
	rt.d.OnExit(func(c *Container) { fn(view(c)) })
}

package simdocker

import (
	"repro/internal/flowcon"
	"repro/internal/runtime"
)

// RT adapts a Daemon to the backend-neutral runtime.Runtime interface —
// the view cluster.Worker, the manager and the rebalancer drive. Like
// the daemon itself it is not thread-safe: all calls belong on the
// simulation goroutine.
//
// RT owns the scratch buffer behind RunningStats, so the Algorithm 1
// hot path stays allocation-free at steady state, and it fans daemon
// start/exit notifications out to runtime-level hooks as Container
// views. It subscribes to the daemon exactly once, at construction —
// construct the RT before any other daemon subscriber whose ordering
// matters (event insertion order is deterministic, so subscriber order
// shapes golden traces).
type RT struct {
	d *Daemon

	statScratch []flowcon.Stat

	startSubs []func(runtime.Container)
	exitSubs  []func(runtime.Container)
}

var _ runtime.Runtime = (*RT)(nil)

// NewRuntime wraps a daemon in its runtime.Runtime adapter.
func NewRuntime(d *Daemon) *RT {
	rt := &RT{d: d}
	d.OnStart(func(c *Container) {
		for _, fn := range rt.startSubs {
			fn(view(c))
		}
	})
	d.OnExit(func(c *Container) {
		for _, fn := range rt.exitSubs {
			fn(view(c))
		}
	})
	return rt
}

// view snapshots a live container into the backend-neutral value form.
func view(c *Container) runtime.Container {
	v := runtime.Container{
		ID:          c.id,
		Name:        c.name,
		Image:       c.image,
		CPULimit:    c.cpuLimit,
		CPUAlloc:    c.alloc,
		CPUSeconds:  c.cpuSeconds,
		MemoryBytes: c.memBytes,
		StartedAt:   float64(c.startedAt),
		FinishedAt:  float64(c.finishedAt),
		Done:        c.workload.Done(),
	}
	if c.state == Running {
		v.State = runtime.Running
	} else {
		v.State = runtime.Exited
	}
	if wr, ok := c.workload.(interface{ Work() float64 }); ok {
		v.Work = wr.Work()
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
		Image:    spec.Image,
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

// PS implements runtime.Runtime.
func (rt *RT) PS(all bool) []runtime.Container {
	cs := rt.d.PS(all)
	out := make([]runtime.Container, len(cs))
	for i, c := range cs {
		out[i] = view(c)
	}
	return out
}

// RunningStats implements runtime.Runtime. The returned slice aliases
// the adapter's scratch buffer and is only valid until the next call.
func (rt *RT) RunningStats() []flowcon.Stat {
	rt.statScratch = rt.d.AppendRunningStats(rt.statScratch[:0])
	return rt.statScratch
}

// Checkpoint implements runtime.Runtime.
func (rt *RT) Checkpoint(id string) (*runtime.Checkpoint, error) {
	return rt.d.Checkpoint(id)
}

// Restore implements runtime.Runtime.
func (rt *RT) Restore(cp *runtime.Checkpoint) (runtime.Container, error) {
	c, err := rt.d.Restore(cp)
	if err != nil {
		return runtime.Container{}, err
	}
	return view(c), nil
}

// OnStart implements runtime.Runtime.
func (rt *RT) OnStart(fn func(runtime.Container)) {
	rt.startSubs = append(rt.startSubs, fn)
}

// OnExit implements runtime.Runtime.
func (rt *RT) OnExit(fn func(runtime.Container)) {
	rt.exitSubs = append(rt.exitSubs, fn)
}

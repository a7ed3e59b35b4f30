// Package simdocker is an in-process, discrete-event reproduction of the
// Docker Engine surface FlowCon relies on.
//
// The paper implements FlowCon as middleware above Docker CE 18.09 and uses
// exactly four daemon capabilities: `docker run` (start a containerized DL
// job), `docker update` (re-set soft resource limits on a running
// container), container stats (per-container CPU accounting), and exit
// detection ("the container is marked as exited"). This package provides
// those capabilities over the deterministic sim engine:
//
//   - a Daemon owns a node's CPU capacity and a container pool;
//   - containers run Workloads (the synthetic DL jobs of internal/dlmodel)
//     and accrue CPU work according to the work-conserving soft-limit
//     allocator in internal/resource;
//   - completion times are computed analytically (no timestep error) and
//     delivered as simulation events;
//   - subscribers receive start/exit notifications, which is what the
//     paper's New Cons / Finished Cons listeners consume.
package simdocker

import (
	"fmt"

	"repro/internal/runtime"
	"repro/internal/sim"
)

// Errors returned by daemon operations. Each wraps the backend-neutral
// sentinel in internal/runtime (message bytes unchanged), so errors.Is
// matches against either simdocker.ErrNotFound or runtime.ErrNotFound.
var (
	// ErrNotFound means no container with the given id exists.
	ErrNotFound = fmt.Errorf("simdocker: %w", runtime.ErrNotFound)
	// ErrNotRunning means the operation needs a running container.
	ErrNotRunning = fmt.Errorf("simdocker: %w", runtime.ErrNotRunning)
	// ErrNameInUse means a container with that name already exists.
	ErrNameInUse = fmt.Errorf("simdocker: %w", runtime.ErrNameInUse)
	// ErrBadLimit means an update specified a limit outside (0, 1].
	ErrBadLimit = fmt.Errorf("simdocker: %w", runtime.ErrBadLimit)
)

// ResourceProfiler is optionally implemented by workloads that model
// memory/IO footprints; the daemon uses it to fill the non-CPU
// dimensions of the stats the paper's container monitor records.
//
// MemoryBytes must stay constant while the container runs: the daemon
// samples it once at start and maintains the node-wide resident aggregate
// incrementally (containers in this reproduction, like the paper's DL
// jobs, reserve their working set up front).
type ResourceProfiler interface {
	MemoryBytes() float64
	BlkIOPerWork() float64
	NetIOPerWork() float64
}

// Container is one containerized job in the daemon's pool. All fields are
// managed by the daemon; read access is provided through methods so the
// accounting invariants cannot be broken from outside.
type Container struct {
	// d is the daemon whose pool holds the container; nil once Remove
	// (or a Checkpoint freeze) has dropped it.
	d     *Daemon
	id    string
	name  string
	state runtime.State

	startedAt  sim.Time
	finishedAt sim.Time

	workload runtime.Workload

	// cpuLimit is the soft limit in (0,1] set at run time or by Update.
	cpuLimit float64
	// alloc is the CPU share currently granted by the allocator.
	alloc float64
	// cpuSeconds is cumulative CPU time consumed up to the daemon's last
	// fold; reads add what accrued since (see Daemon).
	cpuSeconds float64
	// blkioBytes / netioBytes are cumulative I/O, derived from work, on
	// the same terms.
	blkioBytes float64
	netioBytes float64

	// memBytes is the resident footprint sampled when the container
	// started; the daemon's incremental MemoryUsed aggregate relies on it
	// staying constant while the container runs (see ResourceProfiler).
	memBytes float64
	// eta is the analytic completion time under the current allocation
	// (sim.Infinity when unknowable); etaIndex is the container's slot in
	// the daemon's completion min-heap, -1 when not enqueued.
	eta      sim.Time
	etaIndex int
}

// ID returns the container id (cid in the paper's notation).
func (c *Container) ID() string { return c.id }

// Name returns the user-supplied container name.
func (c *Container) Name() string { return c.name }

// State returns the lifecycle state, in the runtime's vocabulary.
func (c *Container) State() runtime.State { return c.state }

// Removed reports whether the container has left its daemon's pool
// (`docker rm`, or a checkpoint freeze). Observers that hold container
// handles across events — the metrics sampler — drop them on this.
func (c *Container) Removed() bool { return c.d == nil }

// StartedAt returns when the container started running.
func (c *Container) StartedAt() sim.Time { return c.startedAt }

// FinishedAt returns when the container exited (zero if still running).
func (c *Container) FinishedAt() sim.Time { return c.finishedAt }

// CPULimit returns the current soft CPU limit in (0,1].
func (c *Container) CPULimit() float64 { return c.cpuLimit }

// CPUSeconds returns cumulative CPU time as of now: the value at the
// daemon's last fold plus alloc·(now − last fold). It changes no state.
// An exited container has no allocation, so its value is final.
func (c *Container) CPUSeconds() float64 {
	if c.alloc == 0 {
		return c.cpuSeconds
	}
	return c.cpuSeconds + c.alloc*c.d.elapsed()
}

// CPUAlloc returns the CPU share currently granted by the allocator.
func (c *Container) CPUAlloc() float64 { return c.alloc }

// Workload exposes the contained workload (the monitor samples Eval
// through it).
func (c *Container) Workload() runtime.Workload { return c.workload }

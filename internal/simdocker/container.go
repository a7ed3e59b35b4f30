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

// Containers move through the same lifecycle states Docker reports.
type State int

const (
	// Created: the container exists but has not started running.
	Created State = iota
	// Running: the workload is executing and consuming resources.
	Running
	// Exited: the workload finished or the container was stopped.
	Exited
)

// String implements fmt.Stringer with Docker's lowercase state names.
func (s State) String() string {
	switch s {
	case Created:
		return "created"
	case Running:
		return "running"
	case Exited:
		return "exited"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

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
	// ErrNoImage means the referenced image has not been pulled.
	ErrNoImage = fmt.Errorf("simdocker: %w", runtime.ErrNoImage)
	// ErrBadLimit means an update specified a limit outside (0, 1].
	ErrBadLimit = fmt.Errorf("simdocker: %w", runtime.ErrBadLimit)
)

// Workload is the black-box process a container runs. FlowCon's contract
// with a DL job is exactly this: it can be driven by CPU time, reports an
// evaluation function value, and eventually finishes. *dlmodel.Job
// satisfies it. The contract is backend-neutral, so the type is shared
// with every other runtime implementation.
type Workload = runtime.Workload

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
	id    string
	name  string
	image string
	state State

	startedAt  sim.Time
	finishedAt sim.Time

	workload Workload

	// cpuLimit is the soft limit in (0,1] set at run time or by Update.
	cpuLimit float64
	// alloc is the CPU share currently granted by the allocator.
	alloc float64
	// cpuSeconds is cumulative CPU time consumed.
	cpuSeconds float64
	// blkioBytes / netioBytes are cumulative I/O, derived from work.
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
	// removed is set when Remove (or a Checkpoint freeze) drops the
	// container from the pool, so whoever still holds the handle can tell.
	removed bool
}

// ID returns the container id (cid in the paper's notation).
func (c *Container) ID() string { return c.id }

// Name returns the user-supplied container name.
func (c *Container) Name() string { return c.name }

// State returns the lifecycle state.
func (c *Container) State() State { return c.state }

// Removed reports whether the container has left its daemon's pool
// (`docker rm`, or a checkpoint freeze). Observers that hold container
// handles across events — the metrics sampler — drop them on this.
func (c *Container) Removed() bool { return c.removed }

// StartedAt returns when the container started running.
func (c *Container) StartedAt() sim.Time { return c.startedAt }

// FinishedAt returns when the container exited (zero if still running).
func (c *Container) FinishedAt() sim.Time { return c.finishedAt }

// CPULimit returns the current soft CPU limit in (0,1].
func (c *Container) CPULimit() float64 { return c.cpuLimit }

// CPUSeconds returns cumulative CPU time as of the daemon's last settle.
// For an exited container the value is final and needs no settling — the
// metrics sampler relies on that to read dead containers cheaply.
func (c *Container) CPUSeconds() float64 { return c.cpuSeconds }

// CPUAlloc returns the CPU share currently granted by the allocator.
func (c *Container) CPUAlloc() float64 { return c.alloc }

// Workload exposes the contained workload (the monitor samples Eval
// through it).
func (c *Container) Workload() Workload { return c.workload }

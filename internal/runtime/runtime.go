// Package runtime defines the backend-neutral container-runtime surface
// the upper layers of the reproduction drive: launch/stop/remove,
// lookup/PS, per-container CPU-limit updates, the running stats
// Algorithm 1 consumes, capacity and memory aggregates, and start/exit
// hooks. Migratable adds checkpoint/restore, which only the simulated
// cluster's migration and self-healing drive.
//
// Three implementations conform to Runtime — the deterministic
// simulator (simdocker.RT), the wall-clock in-process node
// (livedock.Node), and cluster.Worker wrapping the simulator — all
// verified by the shared conformance suite in runtimetest; the two
// simulator backends also implement Migratable and pass its
// checkpoint/restore checks. A new backend (cgroups-backed,
// oversubscribed, fault-injected) costs one conformance-suite run, not a
// cross-layer rewrite. flowcon-worker runs the simulator's
// flowcon.Controller over a livedock.Node in process, and the agent
// service exposes the node's jobs over HTTP; no client implements any
// interface here. See docs/RUNTIME.md for the contract.
package runtime

import "repro/internal/flowcon"

// State is the lifecycle phase of a container as reported by a Runtime:
// Running or Exited. The zero State is neither, so a zero Container
// reports "unknown".
type State int

// Lifecycle states.
const (
	Running State = iota + 1
	Exited
)

// String implements fmt.Stringer with the lowercase names wire formats
// and log lines use.
func (s State) String() string {
	switch s {
	case Running:
		return "running"
	case Exited:
		return "exited"
	default:
		return "unknown"
	}
}

// Workload is the in-process training process a container hosts: the
// runtime delivers CPU work to it and reads demand, completion and the
// evaluation metric back. dlmodel.Job is the canonical implementation.
type Workload interface {
	// Advance delivers cpuSeconds of CPU work.
	Advance(cpuSeconds float64)
	// CPUDemand returns the current maximum CPU fraction the workload
	// can consume (0 once done).
	CPUDemand() float64
	// Done reports whether the workload finished its budget.
	Done() bool
	// Remaining returns the CPU work still needed to finish, in
	// cpu-seconds; runtimes derive completion times from it.
	Remaining() float64
	// Work returns the cumulative CPU work delivered so far.
	Work() float64
	// EvalAt returns the evaluation-function value the workload reports
	// at the given cumulative work, without delivering any. A runtime
	// that accrues work lazily reads the current value as
	// EvalAt(Work() + the work accrued since its last Advance).
	EvalAt(work float64) float64
}

// LaunchSpec describes one container to launch. Every backend requires
// Workload; Model, a dlmodel catalog key like "MNIST (Tensorflow)", is
// recorded for observability (the agent service sets it). A zero
// CPULimit means the backend default (1.0).
type LaunchSpec struct {
	Name     string
	Model    string
	Workload Workload
	CPULimit float64
}

// Container is an immutable point-in-time view of one container. Times
// are seconds on the backend's own clock (simulation time for simdocker,
// seconds since node start for livedock).
type Container struct {
	ID   string
	Name string
	// Model is the catalog key the container was launched from, when the
	// launch recorded one (the agent service does); empty otherwise.
	Model string
	State State
	// CPULimit is the configured soft limit, CPUAlloc the currently
	// granted share, CPUSeconds the cumulative delivered CPU time.
	CPULimit   float64
	CPUAlloc   float64
	CPUSeconds float64
	// MemoryBytes is the container's resident footprint (0 on backends
	// that do not model memory).
	MemoryBytes float64
	StartedAt   float64
	FinishedAt  float64
	// Done reports whether the workload finished its budget — distinct
	// from State: a stopped or failed container exits with Done false.
	Done bool
	// Work is the workload's cumulative delivered CPU work.
	Work float64
}

// Runtime is the pluggable container-runtime contract. Implementations
// need not be safe for concurrent use unless they document it: the
// deterministic simulator serializes all calls on the event loop, while
// livedock.Node is internally locked.
type Runtime interface {
	// Capacity returns the node's CPU capacity in cores.
	Capacity() float64
	// MemoryCapacity and MemoryUsed return the node's memory aggregates
	// in bytes; both are 0 on backends that do not model memory.
	MemoryCapacity() float64
	MemoryUsed() float64
	// RunningCount returns the number of currently running containers.
	RunningCount() int

	// Launch starts a container and returns its view. Errors wrap
	// ErrNameInUse, ErrBadLimit or ErrQueueFull.
	Launch(spec LaunchSpec) (Container, error)
	// Stop terminates a running container (workload incomplete — a
	// manual stop is not a completion). Wraps ErrNotFound/ErrNotRunning.
	Stop(id string) error
	// Remove deletes an exited container, freeing its name. Wraps
	// ErrNotFound; removing a running container is an error.
	Remove(id string) error
	// SetCPULimit updates a running container's soft CPU limit.
	// Wraps ErrNotFound, ErrNotRunning or ErrBadLimit.
	SetCPULimit(id string, limit float64) error

	// Lookup returns the view of the container with the given name.
	Lookup(name string) (Container, error)
	// PS lists containers in creation order — running only, or all
	// (including exited) when all is true.
	PS(all bool) []Container
	// RunningStats returns the per-container stats Algorithm 1 consumes.
	// The returned slice is only valid until the next call (backends
	// reuse scratch buffers to keep the controller hot path
	// allocation-free).
	RunningStats() []flowcon.Stat

	// OnStart and OnExit register lifecycle hooks, fired with the
	// container's view at the transition instant. Hooks registered on
	// the same runtime fire in registration order.
	OnStart(fn func(Container))
	OnExit(fn func(Container))
}

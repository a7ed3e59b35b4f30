// Package runtime defines the backend-neutral container-runtime surface
// the upper layers of the reproduction drive: launch/stop/lookup/PS,
// per-container CPU-limit updates, the running stats Algorithm 1
// consumes, capacity and memory aggregates, checkpoint/restore, and
// start/exit hooks.
//
// Four implementations conform to it today — the deterministic simulator
// (simdocker.RT), the wall-clock in-process node (livedock.Node), the
// remote HTTP pair (agent.RemoteRuntime against agent.Server), and
// cluster.Worker wrapping any of them — all verified by the shared
// conformance suite in runtimetest. A new backend (cgroups-backed,
// oversubscribed, fault-injected) costs one conformance-suite run, not a
// cross-layer rewrite. See docs/RUNTIME.md for the contract.
package runtime

import "repro/internal/flowcon"

// State is the coarse lifecycle phase of a container as reported by a
// Runtime. Queued exists only for backends with an admission queue (the
// agent service); in-process backends report Running or Exited.
type State int

// Lifecycle states.
const (
	Queued State = iota
	Running
	Exited
)

// String implements fmt.Stringer with the lowercase names wire formats
// and log lines use.
func (s State) String() string {
	switch s {
	case Queued:
		return "queued"
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
// Remote backends cannot transport a Workload — they launch by Model
// name instead (see LaunchSpec).
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
	// Eval returns the current evaluation-function value.
	Eval() float64
}

// LaunchSpec describes one container to launch. In-process backends
// (simdocker, livedock) require Workload and ignore Model; the remote
// backend (agent client) requires Model — a dlmodel catalog key like
// "MNIST (Tensorflow)" — because a live Workload cannot cross the wire.
// Image is consumed by backends that model an image store (simdocker);
// others ignore it. A zero CPULimit means the backend default (1.0).
type LaunchSpec struct {
	Name     string
	Image    string
	Model    string
	Workload Workload
	CPULimit float64
}

// Container is an immutable point-in-time view of one container. Times
// are seconds on the backend's own clock (simulation time for simdocker,
// seconds since node start for livedock, server-reported for the agent).
type Container struct {
	ID    string
	Name  string
	Image string
	// Model is the catalog key the container was launched from, when the
	// backend knows it (the agent service); empty otherwise.
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
	// Work is the cumulative delivered CPU work when the workload
	// exposes it (dlmodel jobs do), else 0.
	Work float64
}

// Runtime is the pluggable container-runtime contract. Implementations
// need not be safe for concurrent use unless they document it: the
// deterministic simulator serializes all calls on the event loop, while
// livedock.Node and the agent pair are internally locked.
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
	// ErrNameInUse, ErrNoImage, ErrBadLimit or ErrQueueFull.
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

	// Checkpoint freezes a running container into a restorable snapshot,
	// removing it from the node. Restore resumes one (exactly once).
	// Backends whose semantics forbid it return ErrUnsupported.
	Checkpoint(id string) (*Checkpoint, error)
	Restore(cp *Checkpoint) (Container, error)

	// OnStart and OnExit register lifecycle hooks, fired with the
	// container's view at the transition instant. Hooks registered on
	// the same runtime fire in registration order. Remote backends may
	// deliver hooks asynchronously (on a poll).
	OnStart(fn func(Container))
	OnExit(fn func(Container))
}

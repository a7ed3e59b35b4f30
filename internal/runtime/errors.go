package runtime

import "errors"

// Sentinel errors shared by every Runtime implementation. Backends wrap
// these with their own prefix (e.g. simdocker's ErrNotFound is
// "simdocker: no such container" and unwraps to runtime.ErrNotFound), so
// callers match with errors.Is against either the backend's sentinel or
// the backend-neutral one here. The agent wire protocol transports them
// as machine-readable codes in the JSON error envelope and the client
// re-wraps the matching sentinel on arrival.
var (
	// ErrNotFound: no container with that ID or name.
	ErrNotFound = errors.New("no such container")
	// ErrNotRunning: the operation needs a running container.
	ErrNotRunning = errors.New("container is not running")
	// ErrRunning: the operation needs a stopped container (Remove).
	ErrRunning = errors.New("container is running")
	// ErrNameInUse: a container with that name already exists.
	ErrNameInUse = errors.New("container name already in use")
	// ErrNoImage: the requested image is not present on the node.
	ErrNoImage = errors.New("no such image")
	// ErrBadLimit: CPU limits must lie in (0,1].
	ErrBadLimit = errors.New("cpu limit must be in (0,1]")
	// ErrQueueFull: the admission queue rejected the launch
	// (backpressure — the agent service maps it to HTTP 429).
	ErrQueueFull = errors.New("admission queue is full")
	// ErrDraining: the runtime is shutting down and no longer accepts
	// launches (the agent service maps it to HTTP 503).
	ErrDraining = errors.New("runtime is draining")
)

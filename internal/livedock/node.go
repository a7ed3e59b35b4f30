// Package livedock is the wall-clock counterpart of simdocker: a
// thread-safe, in-process container runtime whose workloads advance with
// real time at rates set by the same proportional-share allocator.
//
// Where simdocker exists to make experiments exact and reproducible,
// livedock exists to run FlowCon the way the paper deploys it — as live
// middleware polling a daemon. It implements both realtime.Runtime (so
// realtime.Driver can manage it directly) and the full runtime.Runtime
// lifecycle contract (so the cluster layers and the agent service drive
// it through the same surface as the simulator), and the
// cmd/flowcon-worker agent serves it over HTTP for a Swarm-style
// manager/worker split.
//
// The clock is injectable: tests drive a fake clock deterministically,
// production uses time.Now.
//
// # Pool invariants
//
// The pool is two pointer slices, both in creation order: order holds
// every container until Remove, running the subset that is Running. A
// container is appended to both on Launch, spliced out of running the
// moment it exits and out of order on Remove, so the hot path (settle,
// reallocate, PS, RunningStats) walks running and never looks an id up.
// RunningCount is len(running) and MemoryUsed an incrementally kept sum.
// Container ids are unique by construction (one sequence counter) and
// that is enforced where an id enters the pool: Launch panics on a
// duplicate, which is what lets reallocation use the unchecked
// resource.Allocator. Every launch, exit and limit change moves every
// share, so those stay O(running) by design — one accounting pass and
// one water-fill.
package livedock

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/flowcon"
	"repro/internal/resource"
	"repro/internal/runtime"
)

// State is a container lifecycle state.
type State int

const (
	// Running containers consume resources.
	Running State = iota
	// Exited containers finished or were stopped.
	Exited
)

// String implements fmt.Stringer.
func (s State) String() string {
	if s == Running {
		return "running"
	}
	return "exited"
}

// Errors returned by node operations. Each wraps the backend-neutral
// sentinel in internal/runtime, so errors.Is matches against either
// livedock.ErrNotFound or runtime.ErrNotFound.
var (
	ErrNotFound   = fmt.Errorf("livedock: %w", runtime.ErrNotFound)
	ErrNotRunning = fmt.Errorf("livedock: %w", runtime.ErrNotRunning)
	ErrNameInUse  = fmt.Errorf("livedock: %w", runtime.ErrNameInUse)
	ErrBadLimit   = fmt.Errorf("livedock: %w", runtime.ErrBadLimit)
)

// Workload is the same black-box contract simdocker uses; *dlmodel.Job
// satisfies it.
type Workload = runtime.Workload

// Container is one live containerized job.
type Container struct {
	ID       string
	Name     string
	Model    string
	State    State
	Limit    float64
	Alloc    float64
	CPUSec   float64
	Started  time.Time
	Finished time.Time

	workload Workload
	memBytes float64
	// seq is the creation sequence number the id was minted from; exit
	// notifications are delivered in this order.
	seq int
}

// Node is a live worker node. All methods are safe for concurrent use.
type Node struct {
	mu          sync.Mutex
	capacity    float64
	memCapacity float64
	clock       func() time.Time
	epoch       time.Time
	containers  map[string]*Container
	byName      map[string]*Container
	// order and running are the pool in creation order (see the package
	// doc); memUsed is the resident sum over running.
	order      []*Container
	running    []*Container
	memUsed    float64
	seq        int
	lastSettle time.Time
	// alloc and claims are reused across reallocations.
	alloc   resource.Allocator
	claims  []resource.Claim
	onStart []func(runtime.Container)
	onExit  []func(runtime.Container)
}

var _ runtime.Runtime = (*Node)(nil)

// NewNode creates a node with the given normalized CPU capacity using the
// system clock.
func NewNode(capacity float64) *Node {
	return NewNodeWithClock(capacity, time.Now)
}

// NewNodeWithClock creates a node with an injected clock (tests).
func NewNodeWithClock(capacity float64, clock func() time.Time) *Node {
	if capacity <= 0 {
		panic(fmt.Sprintf("livedock: capacity %g must be positive", capacity))
	}
	if clock == nil {
		panic("livedock: nil clock")
	}
	now := clock()
	return &Node{
		capacity:   capacity,
		clock:      clock,
		epoch:      now,
		containers: make(map[string]*Container),
		byName:     make(map[string]*Container),
		lastSettle: now,
	}
}

// Capacity implements runtime.Runtime.
func (n *Node) Capacity() float64 { return n.capacity }

// SetMemoryCapacity enables memory modelling: workloads exposing a
// MemoryBytes footprint (dlmodel jobs do) then count toward MemoryUsed.
// Zero (the default) leaves memory unmodelled.
func (n *Node) SetMemoryCapacity(bytes float64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.memCapacity = bytes
}

// MemoryCapacity implements runtime.Runtime (0 when unmodelled).
func (n *Node) MemoryCapacity() float64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.memCapacity
}

// MemoryUsed implements runtime.Runtime: the resident sum over running
// containers whose workloads expose a footprint.
func (n *Node) MemoryUsed() float64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.memUsed
}

// OnStart subscribes to container-start notifications. Callbacks run
// with the node lock released.
func (n *Node) OnStart(fn func(runtime.Container)) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.onStart = append(n.onStart, fn)
}

// OnExit subscribes to container-exit notifications. Callbacks run with
// the node lock released.
func (n *Node) OnExit(fn func(runtime.Container)) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.onExit = append(n.onExit, fn)
}

// view snapshots a container into the backend-neutral value form. Times
// are seconds since the node's epoch.
func (n *Node) view(c *Container) runtime.Container {
	v := runtime.Container{
		ID:          c.ID,
		Name:        c.Name,
		Model:       c.Model,
		CPULimit:    c.Limit,
		CPUAlloc:    c.Alloc,
		CPUSeconds:  c.CPUSec,
		MemoryBytes: c.memBytes,
		StartedAt:   c.Started.Sub(n.epoch).Seconds(),
		Done:        c.workload.Done(),
	}
	if c.State == Running {
		v.State = runtime.Running
	} else {
		v.State = runtime.Exited
		v.FinishedAt = c.Finished.Sub(n.epoch).Seconds()
	}
	if wr, ok := c.workload.(interface{ Work() float64 }); ok {
		v.Work = wr.Work()
	}
	return v
}

// Launch implements runtime.Runtime. The live backend hosts the workload
// in-process, so spec.Workload is required; spec.Image is ignored (no
// image store) and spec.Model is recorded for observability.
func (n *Node) Launch(spec runtime.LaunchSpec) (runtime.Container, error) {
	if spec.Workload == nil {
		return runtime.Container{}, errors.New("livedock: nil workload")
	}
	limit, err := LaunchLimit(spec.CPULimit)
	if err != nil {
		return runtime.Container{}, err
	}
	n.mu.Lock()
	exited := n.settleLocked()
	if spec.Name != "" {
		if _, taken := n.byName[spec.Name]; taken {
			n.unlockAndNotify(exited)
			return runtime.Container{}, fmt.Errorf("%w: %s", ErrNameInUse, spec.Name)
		}
	}
	n.seq++
	id := fmt.Sprintf("live-c%04d", n.seq)
	if _, dup := n.containers[id]; dup {
		// The one point an id enters the pool: reallocation relies on ids
		// being unique instead of re-checking them on every call.
		panic(fmt.Sprintf("livedock: duplicate container id %q", id))
	}
	name := spec.Name
	if name == "" {
		name = id
	}
	c := &Container{
		ID: id, Name: name, Model: spec.Model, State: Running,
		Limit: limit, Started: n.clock(), workload: spec.Workload, seq: n.seq,
	}
	if mb, ok := spec.Workload.(interface{ MemoryBytes() float64 }); ok {
		c.memBytes = mb.MemoryBytes()
	}
	n.containers[id] = c
	n.byName[name] = c
	n.order = append(n.order, c)
	n.running = append(n.running, c)
	n.memUsed += c.memBytes
	n.reallocateLocked()
	v := n.view(c)
	starts := append([]func(runtime.Container){}, n.onStart...)
	n.unlockAndNotify(exited)
	for _, fn := range starts {
		fn(v)
	}
	return v, nil
}

// Run starts a container for the workload and returns its id — the
// historical launch form; Launch is the backend-neutral one.
func (n *Node) Run(name string, w Workload) (string, error) {
	v, err := n.Launch(runtime.LaunchSpec{Name: name, Workload: w})
	if err != nil {
		return "", err
	}
	return v.ID, nil
}

// checkLimit is the one statement of the soft-limit range, (0,1], written
// as a positive range test so NaN fails it.
func checkLimit(limit float64) error {
	if !(limit > 0 && limit <= 1) {
		return fmt.Errorf("%w: %g", ErrBadLimit, limit)
	}
	return nil
}

// LaunchLimit resolves a LaunchSpec.CPULimit to the limit the container
// starts with: 0 means the default 1.0, anything else must lie in (0,1]
// (else an error wrapping ErrBadLimit). Launch applies it; the agent calls
// it to reject a submission it would otherwise queue with the answer an
// immediate launch gets.
func LaunchLimit(limit float64) (float64, error) {
	if limit == 0 {
		limit = 1.0
	}
	return limit, checkLimit(limit)
}

// SetCPULimit applies a soft limit — realtime.Runtime's update call.
func (n *Node) SetCPULimit(id string, limit float64) error {
	if err := checkLimit(limit); err != nil {
		return err
	}
	n.mu.Lock()
	c, ok := n.containers[id]
	if !ok {
		n.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	if c.State != Running {
		n.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrNotRunning, id)
	}
	exited := n.settleLocked()
	c.Limit = limit
	n.reallocateLocked()
	n.unlockAndNotify(exited)
	return nil
}

// Stop terminates a running container.
func (n *Node) Stop(id string) error {
	n.mu.Lock()
	c, ok := n.containers[id]
	if !ok {
		n.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	if c.State != Running {
		n.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrNotRunning, id)
	}
	exited := n.settleLocked()
	if c.State == Running {
		n.exitLocked(c)
		exited = append(exited, c)
	}
	n.reallocateLocked()
	n.unlockAndNotify(exited)
	return nil
}

// Remove deletes an exited container from the pool, freeing its name.
func (n *Node) Remove(id string) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	c, ok := n.containers[id]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	if c.State == Running {
		return fmt.Errorf("livedock: container %s is running (stop it first)", id)
	}
	n.removeLocked(c)
	return nil
}

// removeLocked splices an exited container out of the pool.
func (n *Node) removeLocked(c *Container) {
	delete(n.containers, c.ID)
	if n.byName[c.Name] == c {
		delete(n.byName, c.Name)
	}
	n.order = deleteContainer(n.order, c)
}

// deleteContainer splices c out of a pool slice, keeping creation order.
func deleteContainer(s []*Container, c *Container) []*Container {
	i := slices.Index(s, c)
	return slices.Delete(s, i, i+1)
}

// Lookup implements runtime.Runtime: the container view by name.
func (n *Node) Lookup(name string) (runtime.Container, error) {
	n.mu.Lock()
	exited := n.settleLocked()
	c, ok := n.byName[name]
	if !ok {
		n.unlockAndNotify(exited)
		return runtime.Container{}, fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	v := n.view(c)
	n.unlockAndNotify(exited)
	return v, nil
}

// PS implements runtime.Runtime: container views in creation order.
func (n *Node) PS(all bool) []runtime.Container {
	n.mu.Lock()
	exited := n.settleLocked()
	pool := n.running
	if all {
		pool = n.order
	}
	out := make([]runtime.Container, len(pool))
	for i, c := range pool {
		out[i] = n.view(c)
	}
	n.unlockAndNotify(exited)
	return out
}

// RunningStats implements realtime.Runtime: it settles accounting to the
// current instant and returns per-container counters.
func (n *Node) RunningStats() []flowcon.Stat {
	n.mu.Lock()
	exited := n.settleLocked()
	out := make([]flowcon.Stat, len(n.running))
	for i, c := range n.running {
		out[i] = flowcon.Stat{
			ID:          c.ID,
			Eval:        c.workload.Eval(),
			CPUSeconds:  c.CPUSec,
			MemoryBytes: c.memBytes,
		}
	}
	n.unlockAndNotify(exited)
	return out
}

// Snapshot returns copies of all containers, running and exited.
func (n *Node) Snapshot() []Container {
	n.mu.Lock()
	exited := n.settleLocked()
	out := make([]Container, len(n.order))
	for i, c := range n.order {
		out[i] = *c
	}
	n.unlockAndNotify(exited)
	return out
}

// Checkpoint implements runtime.Runtime: it settles accounting, freezes
// the running container into a restorable snapshot, and removes it from
// the pool (subscribers observe the departure as an exit, its name frees
// up). Unlike the agent's remote surface this is an in-process freeze —
// the live workload changes ownership, exactly as in simdocker.
func (n *Node) Checkpoint(id string) (*runtime.Checkpoint, error) {
	n.mu.Lock()
	exited := n.settleLocked()
	c, ok := n.containers[id]
	if !ok {
		n.unlockAndNotify(exited)
		return nil, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	if c.State != Running {
		n.unlockAndNotify(exited)
		return nil, fmt.Errorf("%w: %s", ErrNotRunning, id)
	}
	cp := &runtime.Checkpoint{
		ID:          c.ID,
		Name:        c.Name,
		CPULimit:    c.Limit,
		MemoryBytes: c.memBytes,
		FrozenAt:    n.clock().Sub(n.epoch).Seconds(),
		Payload:     c.workload,
	}
	if wr, ok := c.workload.(interface{ Work() float64 }); ok {
		cp.Work = wr.Work()
	}
	if rw, ok := c.workload.(interface{ Remaining() float64 }); ok {
		if rem := rw.Remaining(); cp.Work+rem > 0 {
			cp.ProgressFrac = cp.Work / (cp.Work + rem)
		}
	}
	n.exitLocked(c)
	exited = append(exited, c)
	n.removeLocked(c)
	n.reallocateLocked()
	n.unlockAndNotify(exited)
	return cp, nil
}

// Restore implements runtime.Runtime: it thaws a checkpoint into a new
// running container. The workload resumes exactly where the freeze left
// it; the container keeps its name and soft limit but gets a fresh id. A
// checkpoint restores at most once.
func (n *Node) Restore(cp *runtime.Checkpoint) (runtime.Container, error) {
	if cp == nil {
		return runtime.Container{}, errors.New("livedock: restore of nil checkpoint")
	}
	if cp.Restored() {
		return runtime.Container{}, fmt.Errorf("livedock: checkpoint of %s already restored", cp.Name)
	}
	v, err := n.Launch(runtime.LaunchSpec{
		Name:     cp.Name,
		Workload: cp.Payload,
		CPULimit: cp.CPULimit,
	})
	if err != nil {
		return runtime.Container{}, err
	}
	cp.MarkRestored()
	return v, nil
}

// Settle advances accounting to the current instant; completion detection
// happens here, so callers (or a background ticker) should invoke it at
// the resolution they need.
func (n *Node) Settle() {
	n.mu.Lock()
	n.unlockAndNotify(n.settleLocked())
}

// RunningCount returns the number of running containers.
func (n *Node) RunningCount() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.running)
}

// settleLocked integrates work since the last settle at the current
// allocations and retires finished workloads, returning them in creation
// order. Callers must hold the lock and hand the result to
// unlockAndNotify.
func (n *Node) settleLocked() []*Container {
	now := n.clock()
	dt := now.Sub(n.lastSettle).Seconds()
	n.lastSettle = now
	if dt <= 0 {
		return nil
	}
	var exited []*Container
	for i, c := range n.running {
		if c.Alloc != 0 {
			work := c.Alloc * dt
			c.workload.Advance(work)
			c.CPUSec += work
		}
		if c.workload.Done() || c.workload.CPUDemand() <= 0 {
			n.retireLocked(c)
			exited = append(exited, c)
		} else if len(exited) > 0 {
			// Compact the survivors in place once something has left.
			n.running[i-len(exited)] = c
		}
	}
	if len(exited) > 0 {
		live := len(n.running) - len(exited)
		clear(n.running[live:])
		n.running = n.running[:live]
		n.reallocateLocked()
	}
	return exited
}

// retireLocked marks a running container exited and takes its footprint
// out of the aggregates; the caller splices it out of running.
func (n *Node) retireLocked(c *Container) {
	c.State = Exited
	c.Alloc = 0
	c.Finished = n.clock()
	n.memUsed -= c.memBytes
}

// exitLocked retires one running container and splices it out of running.
func (n *Node) exitLocked(c *Container) {
	n.retireLocked(c)
	n.running = deleteContainer(n.running, c)
}

// reallocateLocked recomputes shares with the proportional-share
// allocator. Every change to the running set or a limit ends here.
func (n *Node) reallocateLocked() {
	if len(n.running) == 0 {
		// An empty node holds exactly zero bytes; resetting here keeps
		// float cancellation error from accumulating across generations
		// of containers.
		n.memUsed = 0
	}
	n.claims = n.claims[:0]
	for _, c := range n.running {
		n.claims = append(n.claims, resource.Claim{ID: c.ID, Limit: c.Limit, Demand: c.workload.CPUDemand()})
	}
	for i, a := range n.alloc.Allocate(n.capacity, n.claims) {
		n.running[i].Alloc = a.Amount
	}
}

// unlockAndNotify releases the lock and then fires the exit callbacks for
// the containers the operation retired, in creation order.
func (n *Node) unlockAndNotify(exited []*Container) {
	if len(exited) == 0 {
		n.mu.Unlock()
		return
	}
	// settleLocked's exits are already ordered; Stop and Checkpoint append
	// theirs after them.
	slices.SortFunc(exited, func(a, b *Container) int { return a.seq - b.seq })
	views := make([]runtime.Container, len(exited))
	for i, c := range exited {
		views[i] = n.view(c)
	}
	subs := slices.Clone(n.onExit)
	n.mu.Unlock()
	for _, v := range views {
		for _, fn := range subs {
			fn(v)
		}
	}
}

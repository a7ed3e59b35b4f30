// Package livedock is the wall-clock counterpart of simdocker: a
// thread-safe, in-process container runtime whose workloads advance with
// real time at rates set by the same proportional-share allocator.
//
// Where simdocker exists to make experiments exact and reproducible,
// livedock exists to run FlowCon the way the paper deploys it — as live
// middleware beside the containers. It implements the full
// runtime.Runtime lifecycle contract, flowcon.Runtime's two methods
// included, so the simulator's flowcon.Controller governs it through its
// start and exit hooks exactly as it governs simdocker (on an engine
// realtime.Pacer advances with the wall clock), and the agent service
// drives it through the same surface. cmd/flowcon-worker runs both in
// one process and serves the node over HTTP.
//
// The clock is injectable: tests drive a fake clock deterministically,
// production uses time.Now.
//
// # Pool invariants
//
// The pool is two pointer slices, both in creation order: order holds
// every container until Remove, running the subset that is Running. A
// container is appended to both on Launch, spliced out of running the
// moment it exits and out of order on Remove. RunningCount is
// len(running) and MemoryUsed an incrementally kept sum. Container ids are
// unique by construction (one sequence counter) and that is enforced where
// an id enters the pool: Launch panics on a duplicate. Each id also
// carries the node's boot instant, so a restarted node never reissues an
// id its predecessor used: anything still holding the old container's
// counters under that id would read them going backwards.
//
// # Accounting by virtual time
//
// Shares are resource.Allocator's proportional-share fill: with each
// container's cap = min(demand, capacity) and its limit as the weight,
// there is one water level L at which a container gets min(L·limit, cap).
// Every running container is in one of three groups:
//
//   - fluid: cap/limit > L, share L·limit;
//   - saturated: cap/limit <= L, share cap;
//   - idle: cap or limit <= allocEps, share 0.
//
// L is (capacity − Σ saturated caps) / Σ fluid limits. The node keeps a
// virtual clock V that advances by L·dt at each settle — the virtual time
// of generalized processor sharing (Parekh & Gallager 1993) — so a fluid
// container has earned limit·(V − x0) since it was last charged at x0.
// That charge is applied only when the container is materialised: when it
// is read, moves between groups or leaves. A settle pops only the fluid
// containers whose virtual finish x0 + Remaining()/limit V has passed.
// Saturated containers are few and are charged eagerly at every settle.
//
// Three indexed heaps hold the groups: fluid by cap/limit (min first),
// saturated by cap/limit (max first) and fluid by virtual finish. After a
// join, leave or limit change, heap tops move across the saturation
// boundary until none crosses, and L is recomputed. So Launch, Lookup,
// SetCPULimit, Stop and exits touch O(log n) containers plus those whose
// cap the level crosses. Only PS and RunningStats, which return every
// container, and the creation-order splice of an exit are O(running).
//
// A workload's demand is read once, when it joins: live workloads
// (dlmodel jobs) keep a constant demand until they finish. Shares equal
// resource.Allocator's to within float rounding, not bit for bit, because
// L is one quotient where the allocator carries a progressive remainder.
package livedock

import (
	"container/heap"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"repro/internal/flowcon"
	"repro/internal/runtime"
)

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

// allocEps is resource.Allocator's threshold: a cap or limit at or below it
// takes no share.
const allocEps = 1e-12

// finishEps is remaining work small enough to count as finished, as
// simdocker's completionEps: it absorbs the float residue between a
// virtual finish and the clock that passes it.
const finishEps = 1e-9

// group is a running container's accounting group (see the package doc).
type group uint8

const (
	// detached: exited, or between groups inside one operation.
	detached group = iota
	idle
	fluid
	saturated
)

// Container is one live containerized job.
type Container struct {
	ID       string
	Name     string
	Model    string
	State    runtime.State
	Limit    float64
	CPUSec   float64
	Started  time.Time
	Finished time.Time

	workload Workload
	memBytes float64
	// seq is the creation sequence number the id was minted from; exit
	// notifications are delivered in this order.
	seq int

	group group
	// cap is min(demand, capacity), read once at launch; ratio is
	// cap/Limit, the level at which the container saturates.
	cap, ratio float64
	// x0 is the virtual time a fluid container was last charged to, and
	// finish the virtual time its remaining work runs out.
	x0, finish float64
	// ratioSlot is the container's index in its group's ratio heap,
	// finishSlot in the finish heap.
	ratioSlot, finishSlot int
}

// Node is a live worker node. All methods are safe for concurrent use.
type Node struct {
	mu         sync.Mutex
	capacity   float64
	clock      func() time.Time
	epoch      time.Time
	idPrefix   string // "live-<epoch in hex ns>-c", built once at boot
	containers map[string]*Container
	byName     map[string]*Container
	// order and running are the pool in creation order (see the package
	// doc); memUsed is the resident sum over running.
	order      []*Container
	running    []*Container
	memUsed    float64
	seq        int
	lastSettle time.Time

	// The accounting state (see the package doc): vtime is the virtual
	// clock V, level the water level L, and fluidLimits and satCaps the
	// two sums L is computed from.
	vtime, level         float64
	fluidLimits, satCaps float64
	fluidByRatio         pqueue
	satByRatio           pqueue
	byFinish             pqueue
	idle                 []*Container

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
	// A positive range test, so NaN and +Inf fail it.
	if !(capacity > 0 && capacity <= math.MaxFloat64) {
		panic(fmt.Sprintf("livedock: capacity %g must be positive and finite", capacity))
	}
	if clock == nil {
		panic("livedock: nil clock")
	}
	now := clock()
	ratioSlot := func(c *Container) *int { return &c.ratioSlot }
	return &Node{
		capacity:   capacity,
		clock:      clock,
		epoch:      now,
		idPrefix:   fmt.Sprintf("live-%x-c", now.UnixNano()),
		containers: make(map[string]*Container),
		byName:     make(map[string]*Container),
		lastSettle: now,
		level:      math.Inf(1), // levelOf with nothing running
		// Fluid containers saturate in increasing cap/limit order and
		// saturated ones turn fluid in decreasing order.
		fluidByRatio: pqueue{key: func(c *Container) float64 { return c.ratio }, slot: ratioSlot},
		satByRatio:   pqueue{key: func(c *Container) float64 { return -c.ratio }, slot: ratioSlot},
		byFinish:     pqueue{key: func(c *Container) float64 { return c.finish }, slot: func(c *Container) *int { return &c.finishSlot }},
	}
}

// Capacity implements runtime.Runtime.
func (n *Node) Capacity() float64 { return n.capacity }

// MemoryCapacity implements runtime.Runtime. The live node does not
// model a memory ceiling, so it is always 0 (unmodelled); MemoryUsed
// still sums the footprints of running workloads that expose one.
func (n *Node) MemoryCapacity() float64 { return 0 }

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

// view materialises a container and snapshots it into the backend-neutral
// value form. Times are seconds since the node's epoch.
func (n *Node) view(c *Container) runtime.Container {
	n.materialise(c)
	v := runtime.Container{
		ID:          c.ID,
		Name:        c.Name,
		Model:       c.Model,
		CPULimit:    c.Limit,
		CPUAlloc:    n.share(c),
		CPUSeconds:  c.CPUSec,
		MemoryBytes: c.memBytes,
		StartedAt:   c.Started.Sub(n.epoch).Seconds(),
		State:       c.State,
		Done:        c.workload.Done(),
		Work:        c.workload.Work(),
	}
	if c.State == runtime.Exited {
		v.FinishedAt = c.Finished.Sub(n.epoch).Seconds()
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
	// Demand is read once, here, before the workload is shared.
	demand := spec.Workload.CPUDemand()
	if demand < 0 || math.IsNaN(demand) || math.IsInf(demand, 0) {
		panic(fmt.Sprintf("livedock: workload has invalid demand %g", demand))
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
	id := fmt.Sprintf("%s%04d", n.idPrefix, n.seq)
	if _, dup := n.containers[id]; dup {
		// The one point an id enters the pool; nothing later re-checks.
		panic(fmt.Sprintf("livedock: duplicate container id %q", id))
	}
	name := spec.Name
	if name == "" {
		name = id
	}
	c := &Container{
		ID: id, Name: name, Model: spec.Model, State: runtime.Running,
		Limit: limit, Started: n.clock(), workload: spec.Workload, seq: n.seq,
		cap: min(demand, n.capacity),
	}
	if mb, ok := spec.Workload.(interface{ MemoryBytes() float64 }); ok {
		c.memBytes = mb.MemoryBytes()
	}
	n.containers[id] = c
	n.byName[name] = c
	n.order = append(n.order, c)
	n.running = append(n.running, c)
	n.memUsed += c.memBytes
	n.attach(c)
	n.rebalance()
	v := n.view(c)
	starts := append([]func(runtime.Container){}, n.onStart...)
	n.unlockAndNotify(exited)
	for _, fn := range starts {
		fn(v)
	}
	return v, nil
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

// SetCPULimit applies a soft limit — flowcon.Runtime's update call.
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
	if c.State != runtime.Running {
		n.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrNotRunning, id)
	}
	exited := n.settleLocked()
	if c.State == runtime.Running {
		n.detach(c)
		c.Limit = limit
		n.attach(c)
		n.rebalance()
	}
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
	if c.State != runtime.Running {
		n.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrNotRunning, id)
	}
	exited := n.settleLocked()
	if c.State == runtime.Running {
		n.exitLocked(c)
		exited = append(exited, c)
	}
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
	if c.State == runtime.Running {
		return fmt.Errorf("livedock: remove %s: %w (stop it first)", id, runtime.ErrRunning)
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

// RunningStats implements flowcon.Runtime: it settles accounting to the
// current instant and returns per-container counters.
func (n *Node) RunningStats() []flowcon.Stat {
	n.mu.Lock()
	exited := n.settleLocked()
	out := make([]flowcon.Stat, len(n.running))
	for i, c := range n.running {
		n.materialise(c)
		out[i] = flowcon.Stat{
			ID:          c.ID,
			Eval:        c.workload.EvalAt(c.workload.Work()),
			CPUSeconds:  c.CPUSec,
			MemoryBytes: c.memBytes,
		}
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
	if c.State != runtime.Running {
		n.unlockAndNotify(exited)
		return nil, fmt.Errorf("%w: %s", ErrNotRunning, id)
	}
	n.exitLocked(c)
	exited = append(exited, c)
	cp := &runtime.Checkpoint{
		ID:          c.ID,
		Name:        c.Name,
		CPULimit:    c.Limit,
		MemoryBytes: c.memBytes,
		FrozenAt:    n.clock().Sub(n.epoch).Seconds(),
		Payload:     c.workload,
		Work:        c.workload.Work(),
	}
	if rem := c.workload.Remaining(); cp.Work+rem > 0 {
		cp.ProgressFrac = cp.Work / (cp.Work + rem)
	}
	n.removeLocked(c)
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

// settleLocked advances accounting to the current instant at the shares
// in force since the last settle and retires finished workloads:
// saturated containers are charged eagerly, the virtual clock carries
// every fluid one, and only the fluid containers whose virtual finish has
// passed are touched. Callers must hold the lock and hand the result to
// unlockAndNotify.
func (n *Node) settleLocked() []*Container {
	now := n.clock()
	dt := now.Sub(n.lastSettle).Seconds()
	n.lastSettle = now
	if dt <= 0 {
		return nil
	}
	var exited []*Container
	for _, c := range n.satByRatio.cs {
		work := c.cap * dt
		c.workload.Advance(work)
		c.CPUSec += work
		if c.workload.Done() {
			exited = append(exited, c)
		}
	}
	for _, c := range n.idle {
		if c.cap <= 0 || c.workload.Done() {
			exited = append(exited, c)
		}
	}
	for _, c := range exited {
		n.detach(c)
	}
	if len(n.fluidByRatio.cs) > 0 {
		n.vtime += n.level * dt
		for len(n.byFinish.cs) > 0 {
			c := n.byFinish.cs[0]
			if (c.finish-n.vtime)*c.Limit > finishEps {
				break
			}
			n.detach(c)
			if !c.workload.Done() {
				// Float residue between the virtual finish and the clock:
				// deliver it so Done is authoritative, as simdocker does.
				c.workload.Advance(c.workload.Remaining())
			}
			exited = append(exited, c)
		}
	}
	if len(exited) == 0 {
		return nil
	}
	for _, c := range exited {
		n.retireLocked(c)
	}
	n.running = slices.DeleteFunc(n.running, func(c *Container) bool { return c.State != runtime.Running })
	n.rebalance()
	return exited
}

// retireLocked marks a detached container exited and takes its footprint
// out of the aggregates; the caller splices it out of running.
func (n *Node) retireLocked(c *Container) {
	c.State = runtime.Exited
	c.Finished = n.clock()
	n.memUsed -= c.memBytes
}

// exitLocked retires one running container, splices it out of running and
// rebalances the rest.
func (n *Node) exitLocked(c *Container) {
	n.detach(c)
	n.retireLocked(c)
	n.running = deleteContainer(n.running, c)
	n.rebalance()
}

// share is a container's current CPU share.
func (n *Node) share(c *Container) float64 {
	switch c.group {
	case fluid:
		return n.level * c.Limit
	case saturated:
		return c.cap
	}
	return 0
}

// materialise charges a fluid container what the virtual clock says it
// has earned since it was last charged: limit × (V − x0).
func (n *Node) materialise(c *Container) {
	if c.group != fluid {
		return
	}
	if work := c.Limit * (n.vtime - c.x0); work > 0 {
		c.workload.Advance(work)
		c.CPUSec += work
	}
	c.x0 = n.vtime
}

// attach places a detached running container in the group the current
// level implies; rebalance then settles the boundary.
func (n *Node) attach(c *Container) {
	if c.cap <= allocEps || c.Limit <= allocEps {
		c.group = idle
		n.idle = append(n.idle, c)
		return
	}
	c.ratio = c.cap / c.Limit
	if c.ratio > n.level {
		n.joinFluid(c)
	} else {
		n.joinSaturated(c)
	}
}

// joinFluid starts a container on the virtual clock. Its workload must be
// charged up to now.
func (n *Node) joinFluid(c *Container) {
	c.group = fluid
	c.x0 = n.vtime
	c.finish = n.vtime + c.workload.Remaining()/c.Limit
	n.fluidLimits += c.Limit
	heap.Push(&n.fluidByRatio, c)
	heap.Push(&n.byFinish, c)
}

// joinSaturated runs a container at its cap.
func (n *Node) joinSaturated(c *Container) {
	c.group = saturated
	n.satCaps += c.cap
	heap.Push(&n.satByRatio, c)
}

// detach takes a container out of its group, charging a fluid one first.
// A group that empties restarts its sums (and the virtual clock) at
// exactly zero, so float cancellation error does not accumulate across
// generations of containers.
func (n *Node) detach(c *Container) {
	switch c.group {
	case fluid:
		n.materialise(c)
		heap.Remove(&n.fluidByRatio, c.ratioSlot)
		heap.Remove(&n.byFinish, c.finishSlot)
		n.fluidLimits -= c.Limit
		if len(n.fluidByRatio.cs) == 0 {
			n.vtime, n.fluidLimits = 0, 0
		}
	case saturated:
		heap.Remove(&n.satByRatio, c.ratioSlot)
		n.satCaps -= c.cap
		if len(n.satByRatio.cs) == 0 {
			n.satCaps = 0
		}
	case idle:
		n.idle = deleteContainer(n.idle, c)
	}
	c.group = detached
}

// rebalance restores the level after a join, leave or limit change. Any
// partition's level is a lower bound on the true one, and each move below
// raises it: first saturated containers whose ratio exceeds the level turn
// fluid, then fluid containers at or below it saturate. What is left is
// the unique partition with every saturated ratio <= L < every fluid one.
func (n *Node) rebalance() {
	if len(n.running) == 0 {
		// An empty node holds exactly zero bytes; resetting here keeps
		// float cancellation error from accumulating across generations
		// of containers.
		n.memUsed = 0
	}
	n.level = n.levelOf()
	for len(n.satByRatio.cs) > 0 && n.satByRatio.cs[0].ratio > n.level {
		c := n.satByRatio.cs[0]
		n.detach(c)
		n.joinFluid(c)
		n.level = n.levelOf()
	}
	for len(n.fluidByRatio.cs) > 0 && n.fluidByRatio.cs[0].ratio <= n.level {
		c := n.fluidByRatio.cs[0]
		n.detach(c)
		n.joinSaturated(c)
		n.level = n.levelOf()
	}
}

// levelOf is the water level of the current partition. With no fluid
// container it is +Inf while the saturated caps fit, and -Inf when they
// do not, so rebalance turns the largest ratio fluid.
func (n *Node) levelOf() float64 {
	if len(n.fluidByRatio.cs) == 0 {
		if n.satCaps <= n.capacity {
			return math.Inf(1)
		}
		return math.Inf(-1)
	}
	return (n.capacity - n.satCaps) / n.fluidLimits
}

// unlockAndNotify releases the lock and then fires the exit callbacks for
// the containers the operation retired, in creation order.
func (n *Node) unlockAndNotify(exited []*Container) {
	if len(exited) == 0 {
		n.mu.Unlock()
		return
	}
	// settleLocked's exits are grouped by how they left; Stop and
	// Checkpoint append theirs after them.
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

// pqueue is an indexed binary min-heap of containers for container/heap:
// key orders it, and slot is where each container records its index, so
// removing any container is O(log n).
type pqueue struct {
	cs   []*Container
	key  func(*Container) float64
	slot func(*Container) *int
}

func (q *pqueue) Len() int           { return len(q.cs) }
func (q *pqueue) Less(i, j int) bool { return q.key(q.cs[i]) < q.key(q.cs[j]) }
func (q *pqueue) Swap(i, j int) {
	q.cs[i], q.cs[j] = q.cs[j], q.cs[i]
	*q.slot(q.cs[i]) = i
	*q.slot(q.cs[j]) = j
}
func (q *pqueue) Push(x any) {
	c := x.(*Container)
	*q.slot(c) = len(q.cs)
	q.cs = append(q.cs, c)
}
func (q *pqueue) Pop() any {
	last := len(q.cs) - 1
	c := q.cs[last]
	q.cs[last] = nil
	q.cs = q.cs[:last]
	return c
}

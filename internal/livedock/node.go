// Package livedock is the wall-clock counterpart of simdocker: a
// thread-safe, in-process container runtime whose workloads advance with
// real time at rates set by the same proportional-share allocator.
//
// Where simdocker exists to make experiments exact and reproducible,
// livedock exists to run FlowCon the way the paper deploys it — as live
// middleware beside the containers. It implements runtime.Runtime,
// flowcon.Runtime's two methods included, so the simulator's
// flowcon.Controller governs it through its start and exit hooks exactly
// as it governs simdocker (on an engine realtime.Pacer advances with the
// wall clock, waking also at the node's next exit), and the agent
// service launches, stops and removes its
// containers. cmd/flowcon-worker runs both in one process and serves the
// node over HTTP. It does not checkpoint: migration and self-healing
// belong to the simulated cluster (runtime.Migratable).
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
// is read, moves between groups or leaves. Saturated containers are few
// and are charged eagerly at every settle.
//
// Shares change only at an operation or an exit, so the next exit's
// instant is known in closed form (NextExit): the finish heap's top,
// reached when V has gained finish − V at rate L, or the saturated
// container with the least Remaining()/cap. A settle walks those instants
// in order up to now and retires each container at its own, charged
// exactly its work, so neither its CPU-seconds nor its FinishedAt depend
// on when the node is read; realtime.Pacer settles the node at NextExit.
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

// allocEps is resource.Allocator's threshold: a cap or limit at or below it
// takes no share.
const allocEps = 1e-12

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
	ID     string
	Name   string
	Model  string
	State  runtime.State
	Limit  float64
	CPUSec float64
	// StartedAt and FinishedAt are seconds since the node's epoch;
	// FinishedAt is the instant the container stopped or its work ran out.
	StartedAt, FinishedAt float64

	workload runtime.Workload
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
	order   []*Container
	running []*Container
	memUsed float64
	seq     int
	// settled is the instant, in seconds since epoch, the accounting has
	// been advanced to.
	settled float64

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
	return runtime.Container{
		ID:          c.ID,
		Name:        c.Name,
		Model:       c.Model,
		CPULimit:    c.Limit,
		CPUAlloc:    n.share(c),
		CPUSeconds:  c.CPUSec,
		MemoryBytes: c.memBytes,
		StartedAt:   c.StartedAt,
		FinishedAt:  c.FinishedAt,
		State:       c.State,
		Done:        c.workload.Done(),
		Work:        c.workload.Work(),
	}
}

// Launch implements runtime.Runtime. The live backend hosts the workload
// in-process, so spec.Workload is required; spec.Model is recorded for
// observability.
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
		Limit: limit, StartedAt: n.settled, workload: spec.Workload, seq: n.seq,
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
		n.detach(c)
		n.retireLocked(c, n.settled)
		n.running = deleteContainer(n.running, c)
		n.rebalance()
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
	delete(n.containers, c.ID)
	if n.byName[c.Name] == c {
		delete(n.byName, c.Name)
	}
	n.order = deleteContainer(n.order, c)
	return nil
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

// Settle advances accounting to the current instant, retiring each
// container whose work ran out, stamped with the instant it did. Every
// other call settles first; Settle delivers exits to the hooks when
// nothing reads the node, as realtime.Pacer does at each wake.
func (n *Node) Settle() {
	n.mu.Lock()
	n.unlockAndNotify(n.settleLocked())
}

// NextExit reports when the next running container's work runs out at
// the shares now in force, rounded up to the nanosecond; false when none
// will. A settle then retires it, unless a call moves the shares first.
func (n *Node) NextExit() (time.Time, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	at, c := n.nextExitLocked()
	// Capped 31 years out, where the nanoseconds still fit a Duration.
	return n.epoch.Add(time.Duration(math.Ceil(min(at, 1e9) * 1e9))), c != nil
}

// RunningCount returns the number of running containers.
func (n *Node) RunningCount() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.running)
}

// settleLocked advances accounting to the current instant and retires the
// containers whose work ran out on the way, one finish instant at a time
// (see the package doc). Callers must hold the lock and hand the result
// to unlockAndNotify.
func (n *Node) settleLocked() []*Container {
	now := n.clock().Sub(n.epoch).Seconds()
	var exited []*Container
	for {
		// NextExit rounds up to the nanosecond: an exit within one is due.
		at, c := n.nextExitLocked()
		if c == nil || at > now+1e-9 {
			at, c = now, nil
		}
		if dt := at - n.settled; dt > 0 {
			n.settled = at
			for _, s := range n.satByRatio.cs {
				n.charge(s, s.cap*dt)
			}
			if len(n.fluidByRatio.cs) > 0 {
				n.vtime += n.level * dt
			}
		}
		if c == nil {
			break
		}
		n.detach(c)
		// Float residue between the finish and the clock: deliver it so
		// Done is authoritative, as simdocker does.
		n.charge(c, c.workload.Remaining())
		n.retireLocked(c, n.settled)
		n.rebalance()
		exited = append(exited, c)
	}
	if len(exited) > 0 {
		n.running = slices.DeleteFunc(n.running, func(c *Container) bool { return c.State != runtime.Running })
	}
	return exited
}

// nextExitLocked is the instant, in seconds since epoch, the next running
// container's work runs out at the current shares, and that container
// (nil if none will). An idle one with no demand or work left is due now.
func (n *Node) nextExitLocked() (float64, *Container) {
	for _, c := range n.idle {
		if c.cap <= 0 || c.workload.Done() {
			return n.settled, c
		}
	}
	at, next := math.Inf(1), (*Container)(nil)
	for _, c := range n.satByRatio.cs {
		if t := n.settled + c.workload.Remaining()/c.cap; t < at {
			at, next = t, c
		}
	}
	if len(n.byFinish.cs) > 0 {
		c := n.byFinish.cs[0]
		if t := n.settled + max(c.finish-n.vtime, 0)/n.level; t < at {
			at, next = t, c
		}
	}
	return at, next
}

// charge delivers up to work cpu-seconds to c's workload, no more than it
// has left, and counts them as its CPU time.
func (n *Node) charge(c *Container, work float64) {
	if work = min(work, c.workload.Remaining()); work > 0 {
		c.workload.Advance(work)
		c.CPUSec += work
	}
}

// retireLocked marks a detached container exited at instant at and takes
// its footprint out of the aggregates; the caller splices it out.
func (n *Node) retireLocked(c *Container, at float64) {
	c.State = runtime.Exited
	c.FinishedAt = at
	n.memUsed -= c.memBytes
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
	n.charge(c, c.Limit*(n.vtime-c.x0))
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
	if len(n.fluidByRatio.cs)+len(n.satByRatio.cs)+len(n.idle) == 0 {
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
	// settleLocked's exits come in finish order; Stop appends its own
	// after them.
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

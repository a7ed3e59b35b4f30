package simdocker

import (
	"container/heap"
	"fmt"
	"math"

	"repro/internal/flowcon"
	"repro/internal/resource"
	"repro/internal/runtime"
	"repro/internal/sim"
)

// Image is a pulled container image in the daemon's local store.
type Image struct {
	// Ref is the full reference, e.g. "pytorch/pytorch:1.0".
	Ref string
	// SizeBytes is the image size (bookkeeping only).
	SizeBytes int64
}

// RunSpec describes a `docker run`: which image, an optional name, the
// workload process, and an initial soft CPU limit (1.0 — unlimited — if
// zero, matching `docker run` without --cpus).
type RunSpec struct {
	Image    string
	Name     string
	Workload Workload
	CPULimit float64
}

// completionEps treats remaining work below this as finished, absorbing
// float rounding in the analytic completion-time computation.
const completionEps = 1e-9

// Daemon is a simulated Docker engine bound to one node and one sim engine.
// All methods must be called from the simulation goroutine (event
// callbacks or before Run); the daemon is deliberately not thread-safe
// because determinism is the point.
type Daemon struct {
	engine   sim.Scheduler
	capacity float64

	images     map[string]Image
	containers map[string]*Container
	order      []string // creation order, for stable iteration
	seq        int
	// idPrefix distinguishes container ids across daemons — real Docker
	// ids are globally unique hashes; here "worker-1.c0003" keeps the
	// same property deterministically.
	idPrefix string

	// byName indexes containers by user-visible name so Run's uniqueness
	// check is O(1) instead of a pool scan. Entries live until Remove,
	// matching Docker's name reservation across exit.
	byName map[string]string

	// runningList holds the running containers in creation order — the
	// set settle/reallocate iterate, kept separate from `order` so exited
	// containers stop costing anything on the hot path.
	runningList []*Container
	// running and memUsed are incremental aggregates over runningList,
	// maintained on start/exit so RunningCount/MemoryUsed are O(1).
	running int
	memUsed float64
	// etas is a min-heap of running containers keyed by analytic
	// completion time, so scheduleCompletion reads the earliest finish in
	// O(1) instead of rescanning the pool.
	etas etaHeap

	onStart []func(*Container)
	onExit  []func(*Container)

	// lastAdvance is the time up to which container accounting is settled.
	lastAdvance sim.Time
	// completion is the pending earliest-completion event, if any;
	// completeFn is its callback, built once.
	completion *sim.Event
	completeFn func()

	// stale is set when Update has written a limit the current allocation
	// does not reflect yet; every reallocate clears it. reallocQueued
	// records that this instant's one reallocation event is pending, and
	// reallocFn is that event's callback, built once.
	stale         bool
	reallocQueued bool
	reallocFn     func()

	// alloc, claimScratch and retireScratch are reused across reallocate
	// calls so the per-event hot path allocates nothing in steady state.
	alloc         resource.Allocator
	claimScratch  []resource.Claim
	retireScratch []*Container

	// contention is the per-extra-container efficiency overhead h: with n
	// running containers, each delivers useful work at alloc/(1+h·(n−1)).
	// It models the context-switch and cache-pressure cost of co-located
	// training that the paper's physical testbed exhibits — the mechanism
	// behind FlowCon's 1-5% makespan gains ("reducing the overlap between
	// jobs"). Zero (the default) gives an ideal loss-free node.
	contention float64

	// memCapacity is the node's physical memory in bytes (the paper's
	// R320 has 16 GB). Zero disables memory modelling. When the resident
	// sets of running containers overcommit it, every container pays a
	// thrashing penalty on useful work (see thrashFactor).
	memCapacity float64
}

// thrashFactor scales the efficiency penalty of memory overcommit:
// efficiency is divided by (1 + thrashFactor · overcommit), where
// overcommit = used/capacity − 1. Swapping is brutal — 4 means a 25%
// overcommit halves throughput.
const thrashFactor = 4.0

// NewDaemon creates a daemon managing `capacity` normalized CPUs on the
// given engine. The paper's plots normalize the testbed node to 1.0.
func NewDaemon(engine sim.Scheduler, capacity float64) *Daemon {
	if engine == nil {
		panic("simdocker: nil engine")
	}
	checkCapacity(capacity)
	d := &Daemon{
		engine:     engine,
		capacity:   capacity,
		images:     make(map[string]Image),
		containers: make(map[string]*Container),
		byName:     make(map[string]string),
	}
	d.completeFn = d.complete
	d.reallocFn = d.applyStaged
	return d
}

// Capacity returns the node's CPU capacity.
func (d *Daemon) Capacity() float64 { return d.capacity }

// SetCapacity changes the node's effective CPU capacity mid-run — the
// "degraded node" fault mode (thermal throttling, a sick disk stealing
// cycles, a noisy co-tenant). Consumption is settled at the old capacity
// first, then every running container is reallocated under the new one,
// so the change takes effect exactly at the current virtual instant.
// Like Stop and Checkpoint it must be called from the daemon's own lane
// or a cluster-level event (the fault injector's discipline).
func (d *Daemon) SetCapacity(capacity float64) {
	checkCapacity(capacity)
	if capacity == d.capacity {
		return
	}
	d.settle()
	d.capacity = capacity
	d.reallocate()
}

// SetIDPrefix namespaces this daemon's container ids (e.g. the hosting
// worker's name), keeping ids unique across a multi-worker cluster. Must
// be called before any container runs.
func (d *Daemon) SetIDPrefix(prefix string) {
	if len(d.containers) > 0 {
		panic("simdocker: SetIDPrefix after containers started")
	}
	d.idPrefix = prefix
}

// SetContentionOverhead sets the per-extra-container efficiency overhead
// (see the contention field), a finite h ≥ 0. Must be called before any
// container runs.
func (d *Daemon) SetContentionOverhead(h float64) {
	if !(h >= 0 && h <= math.MaxFloat64) {
		panic(fmt.Sprintf("simdocker: contention overhead %g must be finite and non-negative", h))
	}
	if len(d.containers) > 0 {
		panic("simdocker: SetContentionOverhead after containers started")
	}
	d.contention = h
}

// SetMemoryCapacity sets the node's physical memory in bytes (0 disables
// memory modelling), a finite value ≥ 0. Must be called before any
// container runs.
func (d *Daemon) SetMemoryCapacity(bytes float64) {
	if !(bytes >= 0 && bytes <= math.MaxFloat64) {
		panic(fmt.Sprintf("simdocker: memory capacity %g must be finite and non-negative", bytes))
	}
	if len(d.containers) > 0 {
		panic("simdocker: SetMemoryCapacity after containers started")
	}
	d.memCapacity = bytes
}

// MemoryCapacity returns the configured node memory (0 = unmodelled).
func (d *Daemon) MemoryCapacity() float64 { return d.memCapacity }

// MemoryUsed returns the summed resident footprint of running containers
// whose workloads report one. The aggregate is maintained incrementally on
// start/exit, so reading it is O(1).
func (d *Daemon) MemoryUsed() float64 { return d.memUsed }

// efficiency returns the work-delivery efficiency with n running
// containers: contention cost 1/(1+h·(n−1)) times the thrashing penalty
// when resident memory overcommits the node.
func (d *Daemon) efficiency(n int) float64 {
	eff := 1.0
	if n > 1 {
		eff = 1 / (1 + d.contention*float64(n-1))
	}
	if d.memCapacity > 0 && d.memUsed > d.memCapacity {
		over := d.memUsed/d.memCapacity - 1
		eff /= 1 + thrashFactor*over
	}
	return eff
}

// Pull registers an image in the local store (the offline equivalent of
// `docker pull`).
func (d *Daemon) Pull(img Image) {
	if img.Ref == "" {
		panic("simdocker: image with empty ref")
	}
	d.images[img.Ref] = img
}

// OnStart registers a callback invoked whenever a container starts. This
// feeds the paper's "New Cons" listener.
func (d *Daemon) OnStart(fn func(*Container)) { d.onStart = append(d.onStart, fn) }

// OnExit registers a callback invoked whenever a container exits. This
// feeds the paper's "Finished Cons" listener.
func (d *Daemon) OnExit(fn func(*Container)) { d.onExit = append(d.onExit, fn) }

// Run creates and starts a container (the `docker run -d <image>` path).
func (d *Daemon) Run(spec RunSpec) (*Container, error) {
	if _, ok := d.images[spec.Image]; !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoImage, spec.Image)
	}
	if spec.Workload == nil {
		return nil, fmt.Errorf("simdocker: run %s: nil workload", spec.Image)
	}
	limit := spec.CPULimit
	if limit == 0 {
		limit = 1.0
	}
	if err := checkLimit(limit); err != nil {
		return nil, err
	}
	d.seq++
	id := fmt.Sprintf("c%04d", d.seq)
	if d.idPrefix != "" {
		id = d.idPrefix + "." + id
	}
	name := spec.Name
	if name == "" {
		name = id
	}
	if _, taken := d.byName[name]; taken {
		return nil, fmt.Errorf("%w: %s", ErrNameInUse, name)
	}

	d.settle()
	c := &Container{
		id:        id,
		name:      name,
		image:     spec.Image,
		state:     Running,
		startedAt: d.engine.Now(),
		workload:  spec.Workload,
		cpuLimit:  limit,
		eta:       sim.Infinity,
		etaIndex:  -1,
	}
	if rp, ok := spec.Workload.(ResourceProfiler); ok {
		c.memBytes = rp.MemoryBytes()
	}
	d.containers[id] = c
	d.byName[name] = id
	d.order = append(d.order, id)
	d.runningList = append(d.runningList, c)
	d.running++
	d.memUsed += c.memBytes
	heap.Push(&d.etas, c)
	for _, fn := range d.onStart {
		fn(c)
	}
	d.reallocate()
	return c, nil
}

// Update re-sets a running container's soft CPU limit — the simulated
// `docker update --cpus`. The limit takes effect at the current instant:
// already-accrued work is settled at the old rate, the new limit is
// written at once (CPULimit and RunningStats report it), and the water-fill runs
// in a single reallocation event the daemon queues at (now,
// PriorityState). CPUAlloc reflects the new limit once that event has
// run, which happens before any Listener-or-later event at this instant
// and before the clock advances. A whole Algorithm 1 plan — k updates at
// one instant — therefore costs one fill, not k.
func (d *Daemon) Update(id string, cpuLimit float64) error {
	c, ok := d.containers[id]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	if c.state != Running {
		return fmt.Errorf("%w: %s", ErrNotRunning, id)
	}
	if err := checkLimit(cpuLimit); err != nil {
		return err
	}
	d.settle()
	c.cpuLimit = cpuLimit
	d.stale = true
	if !d.reallocQueued {
		d.reallocQueued = true
		// A separate event, never a replacement for the pending completion
		// event: re-creating that one would give it a newer sequence number
		// and reorder it behind same-instant events queued meanwhile.
		// Exit-tagged because the fill may retire float-residue finishers.
		d.engine.At(d.engine.Now(), sim.PriorityState, "simdocker.reallocate", d.reallocFn).MarkExit()
	}
	return nil
}

// applyStaged is the callback of an instant's reallocation event: one
// settle and fill for every limit Update staged. A Run, Stop, Checkpoint,
// SetCapacity or completion at the same instant reallocates too and
// clears the stale flag, leaving nothing to do here.
func (d *Daemon) applyStaged() {
	d.reallocQueued = false
	if d.stale {
		d.settle()
		d.reallocate()
	}
}

// checkLimit is the daemon's statement of the soft-limit range (0,1].
// Written as a positive range test so NaN fails it.
func checkLimit(limit float64) error {
	if !(limit > 0 && limit <= 1) {
		return fmt.Errorf("%w: %g", ErrBadLimit, limit)
	}
	return nil
}

// checkCapacity panics unless capacity is positive (NaN included).
func checkCapacity(capacity float64) {
	if !(capacity > 0) {
		panic(fmt.Sprintf("simdocker: capacity %g must be positive", capacity))
	}
}

// Stop terminates a running container before its workload finishes.
func (d *Daemon) Stop(id string) error {
	c, ok := d.containers[id]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	if c.state != Running {
		return fmt.Errorf("%w: %s", ErrNotRunning, id)
	}
	d.settle()
	d.exit(c)
	d.reallocate()
	return nil
}

// Remove deletes an exited container from the pool (`docker rm`).
func (d *Daemon) Remove(id string) error {
	c, ok := d.containers[id]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	if c.state == Running {
		return fmt.Errorf("simdocker: remove %s: %w", id, runtime.ErrRunning)
	}
	delete(d.containers, id)
	delete(d.byName, c.name)
	c.removed = true
	for i, oid := range d.order {
		if oid == id {
			d.order = append(d.order[:i], d.order[i+1:]...)
			break
		}
	}
	return nil
}

// Get returns the container with the given id.
func (d *Daemon) Get(id string) (*Container, error) {
	c, ok := d.containers[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	return c, nil
}

// Lookup returns the container with the given user-visible name through
// the daemon's name index — O(1), no pool scan. Like Docker, a name stays
// resolvable until the container is removed.
func (d *Daemon) Lookup(name string) (*Container, error) {
	id, ok := d.byName[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	return d.containers[id], nil
}

// PS lists containers in creation order. With all=false only running
// containers are returned, mirroring `docker ps` vs `docker ps -a`.
func (d *Daemon) PS(all bool) []*Container {
	if !all {
		return append([]*Container(nil), d.runningList...)
	}
	out := make([]*Container, 0, len(d.order))
	for _, id := range d.order {
		out = append(out, d.containers[id])
	}
	return out
}

// RunningCount returns the number of running containers — T(i) in
// Algorithm 2's notation. The count is maintained incrementally on
// start/exit, so reading it is O(1).
func (d *Daemon) RunningCount() int { return d.running }

// Usage is the handle-taking form of AppendRunningStats for observers that already
// hold the container and need only what a usage sampler reads: settled
// cumulative CPU seconds and the workload's current evaluation value. No
// id lookup, no snapshot struct.
func (d *Daemon) Usage(c *Container) (cpuSeconds, eval float64) {
	d.settle()
	return c.cpuSeconds, c.workload.Eval()
}

// AppendRunningStats settles the pool once and appends a snapshot of every
// running container to buf in creation order — the simulated `docker
// stats` — returning the extended slice. It is the allocation-free bulk
// read the per-tick hot path (policy RunningStats) makes instead of PS +
// per-id lookups.
func (d *Daemon) AppendRunningStats(buf []flowcon.Stat) []flowcon.Stat {
	d.settle()
	for _, c := range d.runningList {
		s := flowcon.Stat{
			ID:         c.id,
			Eval:       c.workload.Eval(),
			CPUSeconds: c.cpuSeconds,
			BlkIOBytes: c.blkioBytes,
			NetIOBytes: c.netioBytes,
		}
		if rp, ok := c.workload.(ResourceProfiler); ok {
			s.MemoryBytes = rp.MemoryBytes()
		}
		buf = append(buf, s)
	}
	return buf
}

// EachContainer calls fn for every container — running and exited — in
// creation order, without the defensive copy PS makes. fn must not mutate
// the pool.
func (d *Daemon) EachContainer(fn func(*Container)) {
	for _, id := range d.order {
		fn(d.containers[id])
	}
}

// Sync settles all container accounting up to the engine's current time.
// Monitors call it before reading cumulative counters.
func (d *Daemon) Sync() { d.settle() }

// settle integrates work at the current allocation from lastAdvance to
// now. It must be called before any state mutation or counter read.
func (d *Daemon) settle() {
	now := d.engine.Now()
	dt := float64(now - d.lastAdvance)
	if dt < 0 {
		panic("simdocker: time went backwards")
	}
	if dt == 0 {
		d.lastAdvance = now
		return
	}
	eff := d.efficiency(d.running)
	for _, c := range d.runningList {
		if c.alloc == 0 {
			continue
		}
		// CPU time is consumed at the allocated rate, but only the
		// efficiency-scaled fraction advances the training job.
		cpu := c.alloc * dt
		work := cpu * eff
		c.workload.Advance(work)
		c.cpuSeconds += cpu
		if rp, ok := c.workload.(ResourceProfiler); ok {
			c.blkioBytes += work * rp.BlkIOPerWork()
			c.netioBytes += work * rp.NetIOPerWork()
		}
	}
	d.lastAdvance = now
	// Completions exactly at `now` are handled by the completion event or
	// by reallocate's done-check; settle only does accounting.
}

// exit transitions a container to Exited, updates the incremental
// aggregates, and notifies subscribers.
func (d *Daemon) exit(c *Container) {
	c.state = Exited
	c.alloc = 0
	c.finishedAt = d.engine.Now()
	for i, rc := range d.runningList {
		if rc == c {
			d.runningList = append(d.runningList[:i], d.runningList[i+1:]...)
			break
		}
	}
	d.running--
	d.memUsed -= c.memBytes
	if d.running == 0 {
		// An empty node holds exactly zero bytes; resetting here keeps
		// float cancellation error from accumulating across generations of
		// containers.
		d.memUsed = 0
	}
	if c.etaIndex >= 0 {
		heap.Remove(&d.etas, c.etaIndex)
	}
	for _, fn := range d.onExit {
		fn(c)
	}
}

// reallocate recomputes every running container's CPU share from the
// current limits and demands, retires any workload that has finished, and
// schedules the next analytic completion event. Callers must settle first.
// It consumes every limit Update staged, so a pending reallocation event
// at this instant becomes a no-op.
func (d *Daemon) reallocate() {
	d.stale = false
	// Retire finished workloads before computing shares. Analytic
	// completion events can leave ~1e-15 work of float residue; deliver it
	// so Done() is authoritative for every observer, then exit. Exits
	// splice runningList, so iterate a scratch snapshot.
	d.retireScratch = append(d.retireScratch[:0], d.runningList...)
	for _, c := range d.retireScratch {
		if c.state != Running {
			continue
		}
		rem := remainingWork(c.workload)
		if rem <= 0 && !c.workload.Done() {
			c.workload.Advance(c.workload.Remaining())
		}
		if c.workload.Done() || rem <= 0 || c.workload.CPUDemand() <= 0 {
			d.exit(c)
		}
	}

	d.claimScratch = d.claimScratch[:0]
	for _, c := range d.runningList {
		d.claimScratch = append(d.claimScratch, resource.Claim{
			ID:     c.id,
			Limit:  c.cpuLimit,
			Demand: c.workload.CPUDemand(),
		})
	}
	alloc := d.alloc.Allocate(d.capacity, d.claimScratch)

	// Refresh allocations and analytic completion times in one pass; the
	// indexed min-heap is only touched for containers whose ETA moved.
	eff := d.efficiency(d.running)
	now := d.engine.Now()
	for i, c := range d.runningList {
		c.alloc = alloc[i].Amount
		eta := sim.Infinity
		if c.alloc > 0 {
			eta = now + sim.Time(remainingWork(c.workload)/(c.alloc*eff))
		}
		if eta != c.eta {
			c.eta = eta
			heap.Fix(&d.etas, c.etaIndex)
		}
	}
	d.scheduleCompletion()
}

// scheduleCompletion replaces the pending completion event with one at the
// earliest analytic finish time under the current allocation — an O(1)
// read of the ETA heap's minimum. A pending event already at that exact
// time is kept as-is: most reallocations do not move the earliest finish,
// and reusing the event keeps the steady-state hot path free of both
// allocation and heap churn.
func (d *Daemon) scheduleCompletion() {
	var earliest sim.Time
	if len(d.etas) > 0 {
		earliest = d.etas[0].eta
	} else {
		earliest = sim.Infinity
	}
	if d.completion != nil {
		if earliest != sim.Infinity && d.completion.At() == earliest {
			return
		}
		d.completion.Cancel()
		d.completion = nil
	}
	if earliest == sim.Infinity {
		return
	}
	d.completion = d.engine.At(earliest, sim.PriorityState, "simdocker.completion", d.completeFn)
	// Completions retire containers: in sharded mode each one must close
	// its parallel batch so exit effects are never overtaken.
	d.completion.MarkExit()
}

// complete is the completion event's callback.
func (d *Daemon) complete() {
	d.completion = nil
	d.settle()
	d.reallocate()
}

// etaHeap is an indexed min-heap of running containers ordered by analytic
// completion time. Containers track their slot via etaIndex, so a single
// container's ETA change is an O(log n) Fix instead of a pool rescan.
type etaHeap []*Container

func (h etaHeap) Len() int           { return len(h) }
func (h etaHeap) Less(i, j int) bool { return h[i].eta < h[j].eta }
func (h etaHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i]; h[i].etaIndex = i; h[j].etaIndex = j }
func (h *etaHeap) Push(x any)        { c := x.(*Container); c.etaIndex = len(*h); *h = append(*h, c) }
func (h *etaHeap) Pop() any {
	old := *h
	n := len(old)
	c := old[n-1]
	old[n-1] = nil
	c.etaIndex = -1
	*h = old[:n-1]
	return c
}

// remainingWork returns the workload's remaining CPU work, reading
// residue at or below completionEps as finished. It is what lets the
// daemon compute exact completion times instead of polling.
func remainingWork(w Workload) float64 {
	if rem := w.Remaining(); rem > completionEps {
		return rem
	}
	return 0
}

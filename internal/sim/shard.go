package sim

import (
	"container/heap"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// ShardProfile is the sharded executor's per-run phase profile: where the
// event stream went (parallel batches vs serial-degrade stepping) and
// where the coordinator's wall-clock went (blocked on the epoch barrier
// vs merging deferred work). Event counts are deterministic for a given
// run; the wall-time fields are host measurements and are not.
//
// The profile is what the "multi-core sharded scaling" roadmap item
// optimizes against: a high SerialEvents share means the degrade
// heuristics (ExitsReactive, SerialTail) dominate, a high BarrierWaitSec
// share means lane imbalance, a high MergeSec share means deferred-event
// replay is the next target.
type ShardProfile struct {
	// Epochs counts parallel batches executed (single-lane inline batches
	// included) — the same number Batches reports.
	Epochs int64
	// BatchEvents counts events executed inside batches, across lanes.
	BatchEvents int64
	// SerialEvents counts events the coordinator stepped serially:
	// cluster-lane events, exits, and every event during exit-reactive or
	// tail degrade windows.
	SerialEvents int64
	// SerialEpisodes counts maximal runs of consecutive serial steps — the
	// number of times the executor fell out of batch mode.
	SerialEpisodes int64
	// BarrierWaitSec is coordinator wall-clock spent blocked on the epoch
	// barrier after finishing its own share of a multi-lane batch.
	BarrierWaitSec float64
	// MergeSec is coordinator wall-clock spent in the post-batch merge
	// (clock advance, deferred cancellations, deferred-schedule replay).
	MergeSec float64
	// LaneEvents counts batch events per worker lane (index = lane id - 1).
	// The spread quantifies lane imbalance, the direct cause of barrier
	// wait.
	LaneEvents []int64
}

// Sharded executes one Engine's event stream with per-lane parallelism
// while producing byte-identical results to the serial Run loop.
//
// The model: every event belongs to a lane. Lane 0 is the cluster lane —
// events scheduled directly on the Engine (manager placements, arrivals,
// failures, drains, rebalancer scans, migration thaws, the metrics
// collector's sampling tick) that may read or mutate state on any worker.
// Lanes 1..N are worker lanes — events scheduled through a Lane handle
// (executor ticks, listener runs, container completions) that only touch
// that worker's state.
//
// The coordinator alternates two regimes:
//
//   - serial segments: cluster events — and every event while the
//     simulation is "exit-reactive" (see ExitsReactive) or close to
//     termination (see Remaining) — execute one at a time on the global
//     heap, exactly like Engine.Run.
//   - parallel batches: a maximal prefix of worker-lane events is popped
//     from the heap (ending before the next cluster event and before any
//     exit-tagged event — exits execute serially, see below), partitioned
//     by lane, and executed concurrently. Each lane runs with its own
//     virtual clock and a local mini-heap so same-instant reactions it
//     schedules (listener runs) execute in place; everything at or past
//     the batch boundary — the (time, priority) of the next event still
//     in the global heap — is deferred and merged back after the barrier.
//
// Equivalence with the serial engine rests on three invariants:
//
//  1. per-lane event subsequences are identical to serial, because batch
//     events are popped in global heap order and locally scheduled events
//     order after them at equal (time, priority) — exactly where their
//     serial seq would have put them;
//  2. events on different worker lanes never touch shared state inside a
//     batch: exits only reach the manager when its admission queue is
//     non-empty, and then the executor is in the serial regime. The only
//     shared writes from a batch — the run's finished-job counter and the
//     collector's run counter — are commutative atomics;
//  3. deferred schedules are replayed, in a deterministic cross-lane order
//     (order preserved within each lane), before the next event pops from
//     the global heap, so the relative seq order of any two events that
//     can ever tie on (time, priority) — and share state — matches the
//     order the serial engine would have assigned.
//
// Exit-tagged events (the daemon's completion events) never join a batch:
// they execute serially on the coordinator, because their callbacks can
// stop the engine, and the serial engine skips everything ordered after a
// Stop — including the same-instant listener reactions the exit itself
// schedules. The one remaining divergence window is a floating-point edge
// case: a non-exit event (an executor tick) synchronously retiring the
// run's final job mid-batch while sibling lanes run ahead. Remaining
// keeps the executor serial once few jobs are left, which closes the
// window in practice.
type Sharded struct {
	eng   *Engine
	lanes []*Lane

	// Procs bounds the goroutines executing a batch (default GOMAXPROCS).
	Procs int
	// ExitsReactive reports whether a container exit could interact with
	// cluster state right now (canonically: the manager's admission queue
	// is non-empty, so an exit schedules a same-instant drain that may
	// launch on any worker). While true the executor runs serially. A nil
	// hook is conservatively treated as always-reactive.
	ExitsReactive func() bool
	// Remaining reports how many jobs have not finished. When it drops to
	// SerialTail or below the executor runs serially so the run-ending
	// exit is executed exactly where the serial engine would stop. A nil
	// hook is conservatively treated as always-in-tail.
	Remaining func() int
	// SerialTail is the Remaining threshold below which execution stays
	// serial (default 8).
	SerialTail int

	// inBatch is true while lane goroutines own execution. It is written
	// by the coordinator strictly before goroutines start and after they
	// join, so lane reads are race-free.
	inBatch bool
	// boundAt/boundPrio is the batch boundary: locally scheduled events at
	// or past it are deferred to the global heap at the merge.
	boundAt   Time
	boundPrio Priority

	// active collects the lanes holding events of the current batch, in
	// first-appearance order of the global heap pop — deterministic,
	// because the heap order itself is (scratch, reused).
	active []*Lane
	// batches counts lane batches executed, single-lane ones included
	// (diagnostics).
	batches int

	// prof accumulates the run's phase profile; inSerial tracks whether
	// the previous step was serial, so episodes count transitions.
	prof     ShardProfile
	inSerial bool
}

// NewSharded wraps an engine for sharded execution with the given number
// of worker lanes. The engine must be fresh or previously driven only
// serially; attaching twice panics.
func NewSharded(eng *Engine, workers int) *Sharded {
	if eng == nil {
		panic("sim: NewSharded on nil engine")
	}
	if workers < 1 {
		panic(fmt.Sprintf("sim: sharded engine needs at least 1 worker lane, got %d", workers))
	}
	if eng.shard != nil {
		panic("sim: engine already sharded")
	}
	s := &Sharded{eng: eng, SerialTail: 8}
	s.prof.LaneEvents = make([]int64, workers)
	s.lanes = make([]*Lane, workers)
	for i := range s.lanes {
		s.lanes[i] = &Lane{s: s, id: i + 1}
	}
	eng.shard = s
	return s
}

// Engine returns the wrapped engine.
func (s *Sharded) Engine() *Engine { return s.eng }

// Lane returns the scheduler handle for worker lane i (0-based).
func (s *Sharded) Lane(i int) *Lane { return s.lanes[i] }

// Batches returns how many lane batches have executed, including
// single-lane ones that ran inline under batch semantics (diagnostics;
// zero means the run degenerated to fully serial stepping).
func (s *Sharded) Batches() int { return s.batches }

// Profile returns a copy of the run's accumulated phase profile. Call it
// after Run returns; the counters keep accumulating across multiple Run
// calls on the same executor.
func (s *Sharded) Profile() ShardProfile {
	p := s.prof
	p.Epochs = int64(s.batches)
	p.LaneEvents = append([]int64(nil), s.prof.LaneEvents...)
	return p
}

// deferRemoval queues a canceled event's heap removal for the merge phase.
// Called from the owning lane's goroutine during a batch.
func (s *Sharded) deferRemoval(e *Event) {
	if e.lane == 0 {
		panic("sim: cluster-lane event canceled inside a parallel batch")
	}
	ln := s.lanes[e.lane-1]
	ln.removals = append(ln.removals, e)
}

// Run executes events until the queue drains, the horizon passes, or the
// engine is stopped — semantically identical to Engine.Run(horizon), with
// worker-lane events executing in parallel where safe. It returns the
// number of events executed.
func (s *Sharded) Run(horizon Time) int {
	e := s.eng
	if e.running {
		panic("sim: Run called reentrantly")
	}
	e.running = true
	e.stopped.Store(false)
	defer func() { e.running = false }()

	procs := s.Procs
	if procs <= 0 {
		procs = runtime.GOMAXPROCS(0)
	}

	n := 0
	for len(e.queue) > 0 && !e.stopped.Load() {
		head := e.queue[0]
		if head.at > horizon {
			break
		}
		// Exit-tagged events always execute serially: they can retire
		// containers and call Stop, and the serial engine skips every
		// event ordered after a Stop — including same-instant listener
		// reactions the exit itself schedules. Running exits on the
		// coordinator routes those reactions through the global queue,
		// where the stop check applies to each exactly as in Engine.Run.
		if head.lane == 0 || head.exit || procs == 1 || s.reactive() || s.inTail() {
			e.step()
			n++
			s.prof.SerialEvents++
			if !s.inSerial {
				s.inSerial = true
				s.prof.SerialEpisodes++
			}
			continue
		}
		s.inSerial = false
		n += s.runBatch(horizon, procs)
	}
	if !e.stopped.Load() && horizon != Infinity && e.now < horizon {
		e.now = horizon
	}
	return n
}

// reactive reports whether exits could interact with cluster state.
func (s *Sharded) reactive() bool {
	return s.ExitsReactive == nil || s.ExitsReactive()
}

// inTail reports whether the run is close enough to termination that
// execution must stay serial.
func (s *Sharded) inTail() bool {
	return s.Remaining == nil || s.Remaining() <= s.SerialTail
}

// runBatch pops a parallel-safe prefix of worker-lane events, executes it
// across lanes, and merges deferred work back into the global heap.
func (s *Sharded) runBatch(horizon Time, procs int) int {
	e := s.eng
	s.active = s.active[:0]

	// Pop the batch: worker-lane events in global order, up to the horizon,
	// stopping before the next cluster event and before any exit-tagged
	// event — exits run serially on the coordinator (see Run), so a batch
	// contains no event that can retire containers or stop the engine.
	for len(e.queue) > 0 {
		head := e.queue[0]
		if head.lane == 0 || head.exit || head.at > horizon {
			break
		}
		ev := heap.Pop(&e.queue).(*Event)
		ln := s.lanes[ev.lane-1]
		if len(ln.batch) == 0 {
			s.active = append(s.active, ln)
		}
		ln.batch = append(ln.batch, ev)
	}

	// Boundary for locally scheduled events: the next event still queued,
	// or the horizon when the queue is drained (or only holds events past
	// it). Anything at or past the boundary belongs to the global heap.
	s.boundAt, s.boundPrio = horizon, Priority(int(^uint(0)>>1))
	if len(e.queue) > 0 && !timePrioAfter(e.queue[0].at, e.queue[0].prio, s.boundAt, s.boundPrio) {
		s.boundAt, s.boundPrio = e.queue[0].at, e.queue[0].prio
	}

	s.batches++
	if len(s.active) == 1 {
		// Single-lane batch: run it inline under batch semantics (the lane
		// may still schedule same-instant reactions locally), no goroutines.
		s.inBatch = true
		s.active[0].runBatch()
		s.inBatch = false
	} else {
		// Lanes are picked up by a small pool via an atomic cursor; the
		// coordinator participates. Execution order across lanes does not
		// matter — lanes share no state — so the cursor's nondeterminism is
		// invisible.
		s.inBatch = true
		var cursor atomic.Int64
		cursor.Store(-1)
		work := func() {
			for {
				i := cursor.Add(1)
				if i >= int64(len(s.active)) {
					return
				}
				s.active[i].runBatch()
			}
		}
		helpers := procs - 1
		if helpers > len(s.active)-1 {
			helpers = len(s.active) - 1
		}
		var wg sync.WaitGroup
		wg.Add(helpers)
		for i := 0; i < helpers; i++ {
			go func() {
				defer wg.Done()
				work()
			}()
		}
		work()
		barrier := time.Now()
		wg.Wait()
		s.prof.BarrierWaitSec += time.Since(barrier).Seconds()
		s.inBatch = false
	}

	// Merge phase, on the coordinator: advance the global clock to the
	// furthest lane, apply deferred cancellation removals, and replay
	// deferred schedules lane by lane in the active list's global-pop
	// order. Deferred events from different lanes never interact (worker
	// lanes are independent), so any deterministic cross-lane order is a
	// valid convention; within a lane the scheduling order is preserved,
	// matching the seqs the serial engine would have assigned.
	n := 0
	merge := time.Now()
	for _, ln := range s.active {
		if ln.now > e.now {
			e.now = ln.now
		}
		n += ln.executed
		e.executed += uint64(ln.executed)
		s.prof.BatchEvents += int64(ln.executed)
		s.prof.LaneEvents[ln.id-1] += int64(ln.executed)
		ln.executed = 0
		for _, ev := range ln.removals {
			if ev.index >= 0 {
				heap.Remove(&e.queue, ev.index)
			}
		}
		ln.removals = ln.removals[:0]
		for _, ev := range ln.deferred {
			if ev.canceled {
				continue
			}
			ev.local = false
			e.seq++
			ev.seq = e.seq
			heap.Push(&e.queue, ev)
		}
		ln.deferred = ln.deferred[:0]
		ln.batch = ln.batch[:0]
	}
	s.prof.MergeSec += time.Since(merge).Seconds()
	return n
}

// timePrioAfter reports whether (at1, p1) orders at or after (at2, p2).
func timePrioAfter(at1 Time, p1 Priority, at2 Time, p2 Priority) bool {
	if at1 != at2 {
		return at1 > at2
	}
	return p1 >= p2
}

// Lane is the Scheduler handle for one worker shard. Outside a batch it
// delegates to the engine (tagging events with its lane id); inside a
// batch it keeps a local clock and mini-heap so the lane's events — and
// any same-instant reactions they schedule — execute without touching the
// shared queue.
type Lane struct {
	s  *Sharded
	id int

	// now is the lane's virtual clock while a batch executes.
	now Time
	// lseq orders locally scheduled events among themselves.
	lseq uint64
	// batch holds the lane's slice of the current batch, in global order.
	batch []*Event
	// local is the mini-heap driving in-batch execution (scratch).
	local laneQueue
	// deferred holds events scheduled during the batch that belong to the
	// global heap (at or past the boundary).
	deferred []*Event
	// removals holds canceled events awaiting global-heap removal.
	removals []*Event
	// executed counts events run in the current batch.
	executed int
}

var _ Scheduler = (*Lane)(nil)

// ID returns the lane's id (1-based; 0 is the cluster lane).
func (ln *Lane) ID() int { return ln.id }

// Now implements Scheduler: the lane clock during a batch, the engine
// clock otherwise.
func (ln *Lane) Now() Time {
	if ln.s.inBatch {
		return ln.now
	}
	return ln.s.eng.now
}

// At implements Scheduler. Outside a batch the event goes straight onto
// the engine's queue with this lane's tag; inside a batch it lands on the
// lane's mini-heap when it falls before the batch boundary (a same-instant
// listener reaction) and is deferred to the merge otherwise.
func (ln *Lane) At(t Time, prio Priority, name string, fn func()) *Event {
	s := ln.s
	if !s.inBatch {
		ev := s.eng.At(t, prio, name, fn)
		ev.lane = ln.id
		return ev
	}
	if !(t >= ln.now) {
		panic(fmt.Sprintf("sim: scheduling %q at %.6f before lane now %.6f", name, float64(t), float64(ln.now)))
	}
	if fn == nil {
		panic("sim: nil event callback")
	}
	ln.lseq++
	ev := &Event{at: t, prio: prio, seq: ln.lseq, name: name, fn: fn,
		engine: s.eng, index: -1, lane: ln.id, local: true}
	if timePrioAfter(t, prio, s.boundAt, s.boundPrio) {
		ln.deferred = append(ln.deferred, ev)
	} else {
		heap.Push(&ln.local, ev)
	}
	return ev
}

// After implements Scheduler.
func (ln *Lane) After(d Duration, prio Priority, name string, fn func()) *Event {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %.6f for %q", d, name))
	}
	return ln.At(ln.Now()+Time(d), prio, name, fn)
}

// runBatch executes the lane's share of the current batch on the calling
// goroutine: the pre-popped batch events plus any in-window events they
// schedule, in (time, priority, origin) order.
func (ln *Lane) runBatch() {
	// Seed the mini-heap with the batch events. They arrive in global heap
	// order, which the heap preserves via their (non-local) seqs.
	for _, ev := range ln.batch {
		heap.Push(&ln.local, ev)
	}
	for len(ln.local) > 0 {
		ev := heap.Pop(&ln.local).(*Event)
		if ev.canceled {
			continue
		}
		if ev.at < ln.now {
			panic(fmt.Sprintf("sim: lane %d time went backwards: event %q at %.6f, now %.6f",
				ln.id, ev.name, float64(ev.at), float64(ln.now)))
		}
		ln.now = ev.at
		ev.fn()
		ln.executed++
	}
}

// laneQueue is the lane-local event heap. Ordering is (at, prio), then
// batch events (already holding global seqs) before locally scheduled
// ones — a locally scheduled event's serial seq would have been assigned
// during the window, after every event that was already queued — then seq
// within each class.
type laneQueue []*Event

func (q laneQueue) Len() int { return len(q) }

func (q laneQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	if q[i].prio != q[j].prio {
		return q[i].prio < q[j].prio
	}
	if q[i].local != q[j].local {
		return !q[i].local
	}
	return q[i].seq < q[j].seq
}

// Swap deliberately leaves Event.index untouched: index tracks the global
// heap only (it is -1 for every event in a lane queue), and Cancel's
// deferred-removal path must not mistake a lane slot for a global one.
func (q laneQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }

func (q *laneQueue) Push(x any) { *q = append(*q, x.(*Event)) }

func (q *laneQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return e
}

// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine maintains a virtual clock measured in seconds (float64) and a
// priority queue of timed events. Components schedule callbacks with At or
// After; Run drains the queue in (time, priority, sequence) order, advancing
// the clock to each event's timestamp. Because all state transitions happen
// inside event callbacks on a single goroutine, simulations are exactly
// reproducible: the same inputs always yield the same trace.
//
// The FlowCon reproduction uses sim as the substrate for everything that the
// paper measured in wall-clock seconds on a physical CloudLab node: job
// arrivals, executor intervals, listener interrupts, and training completion
// times.
package sim

import (
	"container/heap"
	"fmt"
	"math"
)

// Time is a point in virtual time, in seconds since the start of the
// simulation.
type Time float64

// Duration is a span of virtual time in seconds.
type Duration = float64

// Infinity is a sentinel time later than any event the engine will ever
// execute.
const Infinity Time = Time(math.MaxFloat64)

// Priority orders events that share a timestamp. Lower values run first.
// The bands below keep the causal order the paper's system implies: state
// changes (arrivals/completions) are observed by listeners before the
// executor re-plans, and metric collection sees the post-update state.
type Priority int

const (
	// PriorityState is for events that mutate the world: job arrival,
	// container completion, resource release.
	PriorityState Priority = iota
	// PriorityListener is for Algorithm 2 listener reactions.
	PriorityListener
	// PriorityExecutor is for Algorithm 1 executor ticks.
	PriorityExecutor
	// PriorityMetric is for observation-only callbacks.
	PriorityMetric
)

// Scheduler is the seam through which a policy gets its clock: the current
// virtual time plus At/After event creation. *Engine implements it, and
// bench/ wraps it to time the closures a policy schedules.
type Scheduler interface {
	// Now returns the current virtual time as seen by this scheduler.
	Now() Time
	// At schedules fn at absolute virtual time t with the given priority.
	At(t Time, prio Priority, name string, fn func()) *Event
	// After schedules fn d seconds from Now.
	After(d Duration, prio Priority, name string, fn func()) *Event
}

// Event is a scheduled callback. Events are created via Engine.At/After and
// may be canceled before they fire. An event that has fired (or was
// canceled) can be queued again with Engine.Rearm.
type Event struct {
	at       Time
	prio     Priority
	seq      uint64
	name     string
	fn       func()
	engine   *Engine
	index    int // heap index; -1 when not queued
	canceled bool
}

// At returns the virtual time at which the event is scheduled.
func (e *Event) At() Time { return e.at }

// Cancel prevents the event's callback from running and eagerly removes the
// event from the engine's queue via its maintained heap index — O(log n),
// with no tombstone left behind to silt up the heap. Canceling an event
// that already fired or was already canceled is a no-op. A re-armed event
// is queued again, so Cancel removes it like any other; re-arming a
// canceled event queues it again.
func (e *Event) Cancel() {
	if e.canceled {
		return
	}
	e.canceled = true
	if e.index >= 0 && e.engine != nil {
		heap.Remove(&e.engine.queue, e.index)
	}
}

// eventQueue implements heap.Interface ordered by (at, prio, seq).
type eventQueue []*Event

func (q eventQueue) Len() int { return len(q) }

func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	if q[i].prio != q[j].prio {
		return q[i].prio < q[j].prio
	}
	return q[i].seq < q[j].seq
}

func (q eventQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}

func (q *eventQueue) Push(x any) {
	e := x.(*Event)
	e.index = len(*q)
	*q = append(*q, e)
}

func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1
	*q = old[:n-1]
	return e
}

// Engine is a single-threaded discrete-event simulator. The zero value is
// not usable; create one with NewEngine.
type Engine struct {
	now     Time
	queue   eventQueue
	seq     uint64
	running bool
	stopped bool
	// executed counts events whose callbacks ran, for diagnostics.
	executed uint64
}

// NewEngine returns an engine with the clock at time zero and an empty
// event queue.
func NewEngine() *Engine {
	return &Engine{}
}

var _ Scheduler = (*Engine)(nil)

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Len returns the number of scheduled, not yet fired events. Canceled
// events leave the queue immediately and are not counted.
func (e *Engine) Len() int { return len(e.queue) }

// NextAt returns the time of the earliest scheduled event, or Infinity
// when none is queued: the instant a wall-clock pacer must next wake.
func (e *Engine) NextAt() Time {
	if len(e.queue) == 0 {
		return Infinity
	}
	return e.queue[0].at
}

// Executed returns how many event callbacks have run so far.
func (e *Engine) Executed() uint64 { return e.executed }

// At schedules fn to run at absolute virtual time t with the given priority.
// Scheduling in the past panics: with a deterministic single-threaded engine
// that is always a programming error, and silently clamping would corrupt
// causality. A NaN time panics the same way: it orders against nothing.
func (e *Engine) At(t Time, prio Priority, name string, fn func()) *Event {
	if !(t >= e.now) {
		panic(fmt.Sprintf("sim: scheduling %q at %.6f before now %.6f", name, float64(t), float64(e.now)))
	}
	if fn == nil {
		panic("sim: nil event callback")
	}
	ev := &Event{prio: prio, name: name, fn: fn, engine: e, index: -1}
	e.push(ev, t)
	return ev
}

// Rearm queues an event that has already fired, or was canceled, again
// at absolute time t, keeping its priority, name and callback: a periodic
// event calls it from its own callback instead of allocating the next
// one with At. The event takes a fresh sequence number exactly as At
// would give a new one, so it orders against same-instant events as a
// freshly scheduled event would. Re-arming a queued event, an event of
// another engine, or at a time before now (or NaN) panics.
func (e *Engine) Rearm(ev *Event, t Time) {
	if ev.engine != e {
		panic(fmt.Sprintf("sim: re-arming %q on another engine", ev.name))
	}
	if ev.index >= 0 {
		panic(fmt.Sprintf("sim: re-arming %q while it is queued", ev.name))
	}
	if !(t >= e.now) {
		panic(fmt.Sprintf("sim: re-arming %q at %.6f before now %.6f", ev.name, float64(t), float64(e.now)))
	}
	ev.canceled = false
	e.push(ev, t)
}

// push stamps ev with time t and the next sequence number and queues it.
func (e *Engine) push(ev *Event, t Time) {
	e.seq++
	ev.at, ev.seq = t, e.seq
	heap.Push(&e.queue, ev)
}

// After schedules fn to run d seconds from now. Negative d panics.
func (e *Engine) After(d Duration, prio Priority, name string, fn func()) *Event {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %.6f for %q", d, name))
	}
	return e.At(e.now+Time(d), prio, name, fn)
}

// Stop makes Run return after the currently executing event (if any)
// finishes. Pending events remain queued.
func (e *Engine) Stop() { e.stopped = true }

// Run executes events in order until the queue is empty, the horizon is
// passed, or Stop is called. Events scheduled exactly at the horizon still
// run. It returns the number of events executed by this call.
func (e *Engine) Run(horizon Time) int {
	if e.running {
		panic("sim: Run called reentrantly")
	}
	e.running = true
	e.stopped = false
	defer func() { e.running = false }()

	n := 0
	for len(e.queue) > 0 && !e.stopped {
		if e.queue[0].at > horizon {
			break
		}
		next := heap.Pop(&e.queue).(*Event)
		if next.at < e.now {
			panic(fmt.Sprintf("sim: time went backwards: event %q at %.6f, now %.6f", next.name, float64(next.at), float64(e.now)))
		}
		e.now = next.at
		next.fn()
		e.executed++
		n++
	}
	// If we stopped because of the horizon, advance the clock to it so a
	// subsequent Run continues from there.
	if !e.stopped && horizon != Infinity && e.now < horizon {
		e.now = horizon
	}
	return n
}

// RunAll executes events until the queue drains or Stop is called.
func (e *Engine) RunAll() int { return e.Run(Infinity) }

// Package realtime runs the simulator's FlowCon controller against the
// wall clock: a Pacer advances a sim.Engine as real time passes, so the
// flowcon.Controller of every simulated run governs a live node unchanged
// (same ticks, same listeners, same event order). Only the clock differs.
//
// The pacer also wakes at the node's next exit and settles the node first
// at every wake, so an exit reaches the controller within the loop's
// lateness of its finish, as a simulated one does at its completion.
//
// The goroutine in Run owns the engine and everything on it. Others reach
// it only through Post, a mutex-guarded inbox that never blocks. It must
// not: a node fires its hooks on whichever goroutine settles it, the
// loop's own included.
package realtime

import (
	"context"
	"math"
	"sync"
	"time"

	"repro/internal/flowcon"
	"repro/internal/livedock"
	"repro/internal/runtime"
	"repro/internal/sim"
)

// Pacer advances a sim.Engine in step with the wall clock and settles a
// live node at its exits. Engine time t is t seconds after the wall
// instant the Pacer was created at.
type Pacer struct {
	engine *sim.Engine
	node   *livedock.Node
	clock  func() time.Time
	start  time.Time

	mu    sync.Mutex
	inbox []posted
	wake  chan struct{}
	// maxLate is the furthest past its due time a wake found anything.
	maxLate time.Duration
}

// NewPacer paces engine, and node's exits, from now on: the engine's
// current time maps to this instant.
func NewPacer(engine *sim.Engine, node *livedock.Node) *Pacer {
	return NewPacerWithClock(engine, node, time.Now)
}

// NewPacerWithClock is NewPacer on an injected clock (tests), which must
// be the node's: the pacer compares its instants with NextExit's.
func NewPacerWithClock(engine *sim.Engine, node *livedock.Node, clock func() time.Time) *Pacer {
	return &Pacer{
		engine: engine,
		node:   node,
		clock:  clock,
		start:  clock().Add(-wall(engine.Now())),
		wake:   make(chan struct{}, 1),
	}
}

// wall converts an engine time to the wall-clock span since the start,
// saturating where a Duration ends, 292 years out.
func wall(t sim.Time) time.Duration {
	if float64(t) >= math.MaxInt64/float64(time.Second) {
		return math.MaxInt64
	}
	return time.Duration(float64(t) * float64(time.Second))
}

// posted is a closure in the inbox and the engine time it was posted at.
type posted struct {
	fn func()
	at sim.Time
}

// Post queues fn to run on the loop goroutine as a state event at the
// engine time of this wall instant. It never blocks and may be called
// from any goroutine, the loop's own included.
func (p *Pacer) Post(fn func()) { p.post(fn, sim.Time(p.clock().Sub(p.start).Seconds())) }

// post is Post at a given engine time.
func (p *Pacer) post(fn func(), at sim.Time) {
	if fn == nil {
		panic("realtime: nil post")
	}
	p.mu.Lock()
	p.inbox = append(p.inbox, posted{fn, at})
	p.mu.Unlock()
	select {
	case p.wake <- struct{}{}:
	default: // a wake is already pending
	}
}

// Listen subscribes ctrl's Algorithm 2 listeners to the node's start and
// exit hooks. A hook may fire on any goroutine, so each posts its
// listener call to the loop.
func (p *Pacer) Listen(ctrl *flowcon.Controller) {
	p.node.OnStart(func(c runtime.Container) { p.Post(func() { ctrl.OnContainerStart(c.ID) }) })
	p.node.OnExit(func(c runtime.Container) { p.Post(func() { ctrl.OnContainerExit(c.ID) }) })
}

// Run owns the engine until ctx ends: it sleeps until the next wake or a
// closure is posted, then runs a Step.
func (p *Pacer) Run(ctx context.Context) {
	timer := time.NewTimer(time.Hour) // reset before every wait
	defer timer.Stop()
	for {
		timer.Reset(p.Step().Sub(p.clock()))
		select {
		case <-ctx.Done():
			return
		case <-timer.C:
		case <-p.wake:
		}
	}
}

// Step is one wake at the clock's instant: it settles the node (whose
// exit hooks post), then runs the posted closures and the due events, and
// returns the next wake, the earlier of the engine's next event and the
// node's next exit. A test on a fake clock calls it at each instant it
// returns, as Run does. Each posted closure becomes a state event at the
// time it was posted, clamped to the engine's time and to now, so it runs
// after the events due before it and before the listener and executor
// events it causes, in the simulator's order: a start posted just before
// a due tick reschedules that tick through its own Algorithm 1 run. An
// event or exit is due once its wall instant, as Run's timer reckons it,
// has passed.
func (p *Pacer) Step() time.Time {
	now := p.clock()
	elapsed := now.Sub(p.start)
	t := max(sim.Time(elapsed.Seconds()), p.engine.Now())
	if due := p.engine.NextAt(); wall(due) <= elapsed {
		t = max(t, due)
		p.maxLate = max(p.maxLate, elapsed-wall(due))
	}
	if exit, ok := p.node.NextExit(); ok && !exit.After(now) {
		p.maxLate = max(p.maxLate, now.Sub(exit))
	}
	p.node.Settle()
	p.mu.Lock()
	batch := p.inbox
	p.inbox = nil
	p.mu.Unlock()
	for _, b := range batch {
		p.engine.At(min(max(b.at, p.engine.Now()), t), sim.PriorityState, "realtime.post", b.fn)
	}
	p.engine.Run(t)
	next := p.start.Add(wall(p.engine.NextAt()))
	if exit, ok := p.node.NextExit(); ok && exit.Before(next) {
		next = exit
	}
	return next
}

// Lateness reports the furthest past its due time a wake found an event
// or exit: how late the loop ran. Call it only after Run has returned.
func (p *Pacer) Lateness() time.Duration { return p.maxLate }

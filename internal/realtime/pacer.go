// Package realtime runs the simulator's FlowCon controller against the
// wall clock: a Pacer advances a sim.Engine as real time passes, so the
// flowcon.Controller of every simulated run governs a live node unchanged
// (same ticks, same listeners, same event order). Only the clock differs.
//
// The goroutine in Run owns the engine and everything on it. Others reach
// it only through Post, a mutex-guarded inbox that never blocks. It must
// not: a node fires exit hooks on whichever goroutine settles it, and
// when the controller reads the node's stats that is the loop itself.
package realtime

import (
	"context"
	"math"
	"sync"
	"time"

	"repro/internal/flowcon"
	"repro/internal/runtime"
	"repro/internal/sim"
)

// Pacer advances a sim.Engine in step with the wall clock. Engine time t
// is t seconds after the wall instant the Pacer was created at.
type Pacer struct {
	engine *sim.Engine
	start  time.Time

	mu    sync.Mutex
	inbox []posted
	wake  chan struct{}
	// maxLate is the furthest past its due time a wake found an event.
	maxLate time.Duration
}

// NewPacer paces engine from now on: its current time maps to this
// instant.
func NewPacer(engine *sim.Engine) *Pacer {
	return &Pacer{
		engine: engine,
		start:  time.Now().Add(-wall(engine.Now())),
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
func (p *Pacer) Post(fn func()) { p.post(fn, sim.Time(time.Since(p.start).Seconds())) }

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

// Run owns the engine until ctx ends: it sleeps until the next event is
// due or a closure is posted, then runs everything due.
func (p *Pacer) Run(ctx context.Context) {
	timer := time.NewTimer(time.Hour) // read only once reset to an event
	defer timer.Stop()
	for {
		var due <-chan time.Time
		if next := p.step(time.Now()); next != sim.Infinity {
			timer.Reset(wall(next) - time.Since(p.start))
			due = timer.C
		}
		select {
		case <-ctx.Done():
			return
		case <-due:
		case <-p.wake:
		}
	}
}

// step brings the engine up to wall instant now and returns the time of
// its next event. Each posted closure becomes a state event at the time
// it was posted, clamped to the engine's time and to now, so it runs
// after the events due before it and before the listener and executor
// events it causes, in the simulator's order: a start posted just before
// a due tick reschedules that tick through its own Algorithm 1 run. An
// event is due once its wall instant, as Run's timer reckons it, has
// passed.
func (p *Pacer) step(now time.Time) sim.Time {
	elapsed := now.Sub(p.start)
	t := max(sim.Time(elapsed.Seconds()), p.engine.Now())
	if due := p.engine.NextAt(); wall(due) <= elapsed {
		t = max(t, due)
		p.maxLate = max(p.maxLate, elapsed-wall(due))
	}
	p.mu.Lock()
	batch := p.inbox
	p.inbox = nil
	p.mu.Unlock()
	for _, b := range batch {
		p.engine.At(min(max(b.at, p.engine.Now()), t), sim.PriorityState, "realtime.post", b.fn)
	}
	p.engine.Run(t)
	return p.engine.NextAt()
}

// Lateness reports the furthest past its due time a wake found an event:
// how late the paced loop ran. Call it only after Run has returned.
func (p *Pacer) Lateness() time.Duration { return p.maxLate }

// Hooks is the part of a live node the controller listens to:
// livedock.Node's start and exit subscriptions.
type Hooks interface {
	OnStart(func(runtime.Container))
	OnExit(func(runtime.Container))
}

// Listen subscribes ctrl's Algorithm 2 listeners to node's start and exit
// hooks. A hook may fire on any goroutine, so each hands its listener
// call to post, which must deliver it to the goroutine that owns ctrl's
// engine: Pacer.Post, or a stepped test's own queue.
func Listen(node Hooks, ctrl *flowcon.Controller, post func(func())) {
	node.OnStart(func(c runtime.Container) { post(func() { ctrl.OnContainerStart(c.ID) }) })
	node.OnExit(func(c runtime.Container) { post(func() { ctrl.OnContainerExit(c.ID) }) })
}

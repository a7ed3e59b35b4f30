package realtime

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/flowcon"
	"repro/internal/runtime"
	"repro/internal/sim"
)

// reuseRuntime hands back one stats slice with advancing counters and
// applies limits without allocating, so only the loop's own allocations
// show.
type reuseRuntime struct{ stats []flowcon.Stat }

func newReuseRuntime(n int) *reuseRuntime {
	rt := &reuseRuntime{}
	for i := 0; i < n; i++ {
		rt.stats = append(rt.stats, flowcon.Stat{ID: fmt.Sprintf("c%02d", i), Eval: 100})
	}
	return rt
}

func (r *reuseRuntime) RunningStats() []flowcon.Stat {
	for i := range r.stats {
		r.stats[i].CPUSeconds += 0.5
		r.stats[i].Eval *= 0.95
	}
	return r.stats
}

func (r *reuseRuntime) SetCPULimit(string, float64) error { return nil }

// at is the wall instant of engine time t under p.
func at(p *Pacer, t float64) time.Time { return p.start.Add(wall(sim.Time(t))) }

// The controller runs on the wall clock: started before Run, it ticks at
// its interval until the context ends, and it can be read once Run has
// returned.
func TestPacerRunsControllerOnTheWallClock(t *testing.T) {
	eng := sim.NewEngine()
	p := NewPacer(eng)
	ctrl := flowcon.NewController(flowcon.Config{Alpha: 0.05, InitialInterval: 0.02}, eng, newReuseRuntime(2), nil)
	ctrl.Start()
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	done := make(chan struct{})
	go func() {
		p.Run(ctx)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not stop when its context ended")
	}
	if ctrl.Runs() < 3 {
		t.Fatalf("Algorithm 1 ran %d times in 300 ms at a 20 ms interval", ctrl.Runs())
	}
	if float64(eng.Now()) < 0.2 {
		t.Fatalf("engine at %v after 300 ms", eng.Now())
	}
}

// Posts from many goroutines, and from a closure already on the loop (as
// an exit hook fired inside the controller's stats read), each run exactly
// once and never block.
func TestPostsRunOnceOnTheLoop(t *testing.T) {
	p := NewPacer(sim.NewEngine())
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		p.Run(ctx)
		close(done)
	}()
	const posters, each = 4, 50
	var ran, nested atomic.Int64
	var all sync.WaitGroup
	all.Add(2 * posters * each)
	for g := 0; g < posters; g++ {
		go func() {
			for i := 0; i < each; i++ {
				p.Post(func() {
					ran.Add(1)
					all.Done()
					p.Post(func() {
						nested.Add(1)
						all.Done()
					})
				})
			}
		}()
	}
	finished := make(chan struct{})
	go func() {
		all.Wait()
		close(finished)
	}()
	select {
	case <-finished:
	case <-time.After(5 * time.Second):
		t.Fatalf("ran %d and %d nested of %d posts", ran.Load(), nested.Load(), posters*each)
	}
	cancel()
	<-done
	if ran.Load() != posters*each || nested.Load() != posters*each {
		t.Fatalf("ran %d and %d nested, want %d each", ran.Load(), nested.Load(), posters*each)
	}
}

// A posted closure runs at the wall instant it is picked up, after the
// events that fell due before it and before the listener and executor
// events at that instant.
func TestStepKeepsTheSimulatorsOrder(t *testing.T) {
	eng := sim.NewEngine()
	p := NewPacer(eng)
	var order []string
	note := func(s string) func() { return func() { order = append(order, s) } }
	eng.At(1, sim.PriorityExecutor, "earlier", note("earlier tick"))
	eng.At(2, sim.PriorityExecutor, "now", note("tick at 2"))
	eng.At(2, sim.PriorityListener, "now", note("listener at 2"))
	eng.At(3, sim.PriorityState, "later", note("state at 3"))
	p.Post(func() {
		order = append(order, fmt.Sprintf("post at %v", eng.Now()))
	})
	if next := p.step(at(p, 2)); next != 3 {
		t.Fatalf("step returned %v, want the next event at 3", next)
	}
	want := []string{"earlier tick", "post at 2", "listener at 2", "tick at 2"}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("order %q, want %q", order, want)
	}
	// A wall clock that reads behind the engine does not move it back.
	if p.step(at(p, 1)); eng.Now() != 2 {
		t.Fatalf("engine moved back to %v", eng.Now())
	}
}

// Lateness is how far past its due time a wake finds the earliest due
// event; wakes with nothing due record nothing.
func TestLateness(t *testing.T) {
	eng := sim.NewEngine()
	p := NewPacer(eng)
	if worst := p.Lateness(); worst != 0 {
		t.Fatalf("fresh pacer: worst lateness %v", worst)
	}
	for i := 1; i <= 10; i++ {
		eng.At(sim.Time(i), sim.PriorityExecutor, "tick", func() {})
		p.Post(func() {}) // an early wake: nothing due yet, nothing recorded
		p.step(at(p, float64(i)-0.5))
		p.step(at(p, float64(i)+float64(i)/1000))
	}
	if worst := p.Lateness(); worst < 9*time.Millisecond || worst > 10*time.Millisecond {
		t.Fatalf("worst lateness %v, want 10 ms", worst)
	}
}

// The paced loop's steady state: a wake with an empty inbox allocates
// nothing, and a wake that fires the controller's tick stays within the
// bound flowcon's TestRunAlgorithm1AllocsBounded allows, the rescheduled
// tick event.
func TestStepAllocs(t *testing.T) {
	eng := sim.NewEngine()
	p := NewPacer(eng)
	ctrl := flowcon.NewController(flowcon.Config{Alpha: 0.03, InitialInterval: 20}, eng, newReuseRuntime(32), nil)
	ctrl.Start()
	now := 0.0
	if avg := testing.AllocsPerRun(200, func() {
		now += 0.01
		p.step(at(p, now))
	}); avg != 0 {
		t.Fatalf("an idle wake allocates %.1f objects, want 0", avg)
	}
	runs := ctrl.Runs()
	if avg := testing.AllocsPerRun(200, func() {
		p.step(at(p, float64(eng.NextAt())))
	}); avg > 1 {
		t.Fatalf("a tick allocates %.1f objects, want <= 1 (the tick event)", avg)
	}
	if got := ctrl.Runs() - runs; got < 200 {
		t.Fatalf("%d ticks ran, want one per wake", got)
	}
}

// fakeNode records the hooks Listen subscribes.
type fakeNode struct{ start, exit func(runtime.Container) }

func (f *fakeNode) OnStart(fn func(runtime.Container)) { f.start = fn }
func (f *fakeNode) OnExit(fn func(runtime.Container))  { f.exit = fn }

// Listen routes both hooks through post, and the listener calls run only
// when the owner of the engine runs them.
func TestListenPostsTheListeners(t *testing.T) {
	eng := sim.NewEngine()
	rt := newReuseRuntime(0)
	rt.stats = []flowcon.Stat{{ID: "a", Eval: 100}}
	ctrl := flowcon.NewController(flowcon.Config{Alpha: 0.05, InitialInterval: 20}, eng, rt, nil)
	var queued []func()
	node := &fakeNode{}
	Listen(node, ctrl, func(fn func()) { queued = append(queued, fn) })
	node.start(runtime.Container{ID: "a"})
	if _, ok := ctrl.ListOf("a"); ok || len(queued) != 1 {
		t.Fatalf("the start hook ran the listener in place (%d queued)", len(queued))
	}
	queued[0]()
	eng.Run(0)
	if l, ok := ctrl.ListOf("a"); !ok || l != flowcon.NewList || ctrl.Runs() != 1 {
		t.Fatalf("after the start: a in %v (%v), %d runs", l, ok, ctrl.Runs())
	}
	rt.stats = nil
	node.exit(runtime.Container{ID: "a"})
	queued[1]()
	eng.Run(0)
	if _, ok := ctrl.ListOf("a"); ok || ctrl.Runs() != 2 {
		t.Fatalf("after the exit: a still listed or %d runs", ctrl.Runs())
	}
}

func TestPacerValidation(t *testing.T) {
	for name, fn := range map[string]func(){
		"nil engine": func() { NewPacer(nil) },
		"nil post":   func() { NewPacer(sim.NewEngine()).Post(nil) },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("did not panic")
				}
			}()
			fn()
		})
	}
}

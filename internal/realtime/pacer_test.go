package realtime

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/flowcon"
	"repro/internal/livedock"
	"repro/internal/runtime"
	"repro/internal/sim"
)

// fakeClock is a manually advanced clock.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{now: time.Unix(0, 0)} }

func (f *fakeClock) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.now
}

func (f *fakeClock) Set(t time.Time) {
	f.mu.Lock()
	f.now = t
	f.mu.Unlock()
}

// newFakePacer paces eng and an empty node on one fake clock.
func newFakePacer(eng *sim.Engine) (*Pacer, *livedock.Node, *fakeClock) {
	clk := newFakeClock()
	node := livedock.NewNodeWithClock(1.0, clk.Now)
	return NewPacerWithClock(eng, node, clk.Now), node, clk
}

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

// stepAt moves the fake clock to engine time t under p and wakes p there.
func stepAt(p *Pacer, clk *fakeClock, t float64) time.Time {
	clk.Set(at(p, t))
	return p.Step()
}

// The controller runs on the wall clock: started before Run, it ticks at
// its interval until the context ends, and it can be read once Run has
// returned.
func TestPacerRunsControllerOnTheWallClock(t *testing.T) {
	eng := sim.NewEngine()
	p := NewPacer(eng, livedock.NewNode(1.0))
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
	p := NewPacer(sim.NewEngine(), livedock.NewNode(1.0))
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

// A posted closure runs at the wall instant it was posted, after the
// events that fell due before it and before the listener and executor
// events at that instant.
func TestStepKeepsTheSimulatorsOrder(t *testing.T) {
	eng := sim.NewEngine()
	p, _, clk := newFakePacer(eng)
	var order []string
	note := func(s string) func() { return func() { order = append(order, s) } }
	eng.At(1, sim.PriorityExecutor, "earlier", note("earlier tick"))
	eng.At(2, sim.PriorityExecutor, "now", note("tick at 2"))
	eng.At(2, sim.PriorityListener, "now", note("listener at 2"))
	eng.At(3, sim.PriorityState, "later", note("state at 3"))
	p.post(func() {
		order = append(order, fmt.Sprintf("post at %v", eng.Now()))
	}, 2)
	if next := stepAt(p, clk, 2.5); !next.Equal(at(p, 3)) {
		t.Fatalf("step returned %v, want the next event at 3", next)
	}
	want := []string{"earlier tick", "post at 2", "listener at 2", "tick at 2"}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("order %q, want %q", order, want)
	}
	// A wall clock that reads behind the engine does not move it back,
	// and a post stamped behind it runs at the engine's time.
	p.post(func() { order = append(order, fmt.Sprintf("late post at %v", eng.Now())) }, 1)
	if stepAt(p, clk, 1); eng.Now() != 2.5 || order[len(order)-1] != "late post at 2.5" {
		t.Fatalf("engine moved back to %v; order %q", eng.Now(), order)
	}
}

// A start posted just before a due tick, and picked up by a wake after
// it, runs first: its listener run reschedules the tick, so Algorithm 1
// runs once, as in the simulator. A start posted after the due instant
// runs after the tick, which is also the simulator's order.
func TestPostBeforeADueTickRunsFirst(t *testing.T) {
	for _, tc := range []struct {
		name     string
		postedAt sim.Time
		runs     int
	}{
		{"posted before the tick", 0.999, 1},
		{"posted after the tick", 1.0005, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng := sim.NewEngine()
			p, _, clk := newFakePacer(eng)
			ctrl := flowcon.NewController(flowcon.Config{Alpha: 0.05, InitialInterval: 1}, eng, newReuseRuntime(1), nil)
			ctrl.Start()
			runsBefore := -1
			p.post(func() {
				runsBefore = ctrl.Runs()
				ctrl.OnContainerStart("c00")
			}, tc.postedAt)
			if next := stepAt(p, clk, 1.001); !next.After(at(p, 1.001)) {
				t.Fatalf("next event at %v: the tick was not rescheduled", next)
			}
			if runsBefore != tc.runs-1 {
				t.Fatalf("the post ran after %d Algorithm 1 runs, want %d", runsBefore, tc.runs-1)
			}
			if got := ctrl.Runs(); got != tc.runs {
				t.Fatalf("Algorithm 1 ran %d times, want %d", got, tc.runs)
			}
		})
	}
}

// Lateness is how far past its due time a wake finds the earliest due
// event; wakes with nothing due record nothing.
func TestLateness(t *testing.T) {
	eng := sim.NewEngine()
	p, _, clk := newFakePacer(eng)
	if worst := p.Lateness(); worst != 0 {
		t.Fatalf("fresh pacer: worst lateness %v", worst)
	}
	for i := 1; i <= 10; i++ {
		eng.At(sim.Time(i), sim.PriorityExecutor, "tick", func() {})
		p.Post(func() {}) // an early wake: nothing due yet, nothing recorded
		stepAt(p, clk, float64(i)-0.5)
		stepAt(p, clk, float64(i)+float64(i)/1000)
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
	p, _, clk := newFakePacer(eng)
	ctrl := flowcon.NewController(flowcon.Config{Alpha: 0.03, InitialInterval: 20}, eng, newReuseRuntime(32), nil)
	ctrl.Start()
	now := 0.0
	if avg := testing.AllocsPerRun(200, func() {
		now += 0.01
		stepAt(p, clk, now)
	}); avg != 0 {
		t.Fatalf("an idle wake allocates %.1f objects, want 0", avg)
	}
	runs := ctrl.Runs()
	if avg := testing.AllocsPerRun(200, func() {
		stepAt(p, clk, float64(eng.NextAt()))
	}); avg > 1 {
		t.Fatalf("a tick allocates %.1f objects, want <= 1 (the tick event)", avg)
	}
	if got := ctrl.Runs() - runs; got < 200 {
		t.Fatalf("%d ticks ran, want one per wake", got)
	}
}

// Listen routes both hooks through Post, and the listener calls run only
// when the owner of the engine runs them.
func TestListenPostsTheListeners(t *testing.T) {
	eng := sim.NewEngine()
	p, node, _ := newFakePacer(eng)
	ctrl := flowcon.NewController(flowcon.Config{Alpha: 0.05, InitialInterval: 20}, eng, node, nil)
	p.Listen(ctrl)
	c, err := node.Launch(runtime.LaunchSpec{Name: "a", Workload: &lump{total: 100}})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := ctrl.ListOf(c.ID); ok || len(p.inbox) != 1 {
		t.Fatalf("the start hook ran the listener in place (%d posted)", len(p.inbox))
	}
	p.Step()
	if l, ok := ctrl.ListOf(c.ID); !ok || l != flowcon.NewList || ctrl.Runs() != 1 {
		t.Fatalf("after the start: a in %v (%v), %d runs", l, ok, ctrl.Runs())
	}
	if err := node.Stop(c.ID); err != nil {
		t.Fatal(err)
	}
	if _, ok := ctrl.ListOf(c.ID); !ok || len(p.inbox) != 1 {
		t.Fatalf("the exit hook ran the listener in place (%d posted)", len(p.inbox))
	}
	p.Step()
	if _, ok := ctrl.ListOf(c.ID); ok || ctrl.Runs() != 2 {
		t.Fatalf("after the exit: a still listed or %d runs", ctrl.Runs())
	}
}

func TestPacerValidation(t *testing.T) {
	for name, fn := range map[string]func(){
		"nil engine": func() { NewPacer(nil, livedock.NewNode(1)) },
		"nil post":   func() { NewPacer(sim.NewEngine(), livedock.NewNode(1)).Post(nil) },
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

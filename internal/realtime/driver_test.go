package realtime

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/flowcon"
)

// fakeRuntime is a hand-driven runtime with thread-safe access (Run uses a
// goroutine).
type fakeRuntime struct {
	mu     sync.Mutex
	stats  []flowcon.Stat
	limits map[string]float64
}

func newFakeRuntime() *fakeRuntime {
	return &fakeRuntime{limits: make(map[string]float64)}
}

func (f *fakeRuntime) RunningStats() []flowcon.Stat {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]flowcon.Stat, len(f.stats))
	copy(out, f.stats)
	return out
}

func (f *fakeRuntime) SetCPULimit(id string, limit float64) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.limits[id] = limit
	return nil
}

func (f *fakeRuntime) set(stats []flowcon.Stat) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.stats = stats
}

func (f *fakeRuntime) limit(id string) float64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.limits[id]
}

func cfg() flowcon.Config {
	return flowcon.Config{Alpha: 0.05, Beta: 2, InitialInterval: 20}
}

func TestDriverRunsOnInterval(t *testing.T) {
	rt := newFakeRuntime()
	rt.set([]flowcon.Stat{{ID: "a", Eval: 100, CPUSeconds: 0}})
	d := NewDriver(cfg(), rt)

	if d.Step(1) {
		t.Fatal("ran before the interval elapsed")
	}
	if !d.Step(20) {
		t.Fatal("did not run at the interval")
	}
	if d.Step(25) {
		t.Fatal("ran again before the next interval")
	}
	if d.Runs() != 1 {
		t.Fatalf("Runs = %d", d.Runs())
	}
}

func TestDriverPollListenerDetectsArrival(t *testing.T) {
	rt := newFakeRuntime()
	rt.set([]flowcon.Stat{{ID: "a", Eval: 100, CPUSeconds: 0}})
	d := NewDriver(cfg(), rt)
	d.Step(1) // establish T(0) = 1

	rt.set([]flowcon.Stat{
		{ID: "a", Eval: 99, CPUSeconds: 1},
		{ID: "b", Eval: 50, CPUSeconds: 0},
	})
	if !d.Step(2) {
		t.Fatal("arrival did not trigger an immediate run")
	}
	if l, ok := d.ListOf("b"); !ok || l != flowcon.NewList {
		t.Fatalf("arrival classified as %v", l)
	}
}

func TestDriverPollListenerDetectsDeparture(t *testing.T) {
	rt := newFakeRuntime()
	rt.set([]flowcon.Stat{
		{ID: "a", Eval: 100, CPUSeconds: 0},
		{ID: "b", Eval: 50, CPUSeconds: 0},
	})
	d := NewDriver(cfg(), rt)
	d.Step(1)
	d.Step(20) // both classified

	rt.set([]flowcon.Stat{{ID: "a", Eval: 98, CPUSeconds: 10}})
	if !d.Step(21) {
		t.Fatal("departure did not trigger an immediate run")
	}
	if _, ok := d.ListOf("b"); ok {
		t.Fatal("departed container still listed")
	}
}

// One container exits and another arrives between two polls: T(i) is
// unchanged, so no listener fires. The next interval run must still drop
// the departed container and admit the new one to NL.
func TestDriverExitAndArrivalInOnePoll(t *testing.T) {
	rt := newFakeRuntime()
	rt.set([]flowcon.Stat{
		{ID: "a", Eval: 100, CPUSeconds: 0},
		{ID: "b", Eval: 50, CPUSeconds: 0},
	})
	d := NewDriver(cfg(), rt)
	d.Step(1)
	d.Step(20) // both classified

	rt.set([]flowcon.Stat{
		{ID: "a", Eval: 98, CPUSeconds: 10},
		{ID: "c", Eval: 70, CPUSeconds: 0},
	})
	if d.Step(21) {
		t.Fatal("a count-preserving swap triggered a run")
	}
	if !d.Step(40) {
		t.Fatal("the interval run did not happen")
	}
	if l, ok := d.ListOf("b"); ok {
		t.Fatalf("departed container still listed in %v", l)
	}
	if l, ok := d.ListOf("c"); !ok || l != flowcon.NewList {
		t.Fatalf("arrival listed %v (%v), want NL", l, ok)
	}
}

func TestDriverBackoffAndReset(t *testing.T) {
	rt := newFakeRuntime()
	d := NewDriver(cfg(), rt)
	// One stalled container: eval frozen, cpu advancing.
	cpu := 0.0
	push := func() {
		cpu += 10
		rt.set([]flowcon.Stat{{ID: "a", Eval: 42, CPUSeconds: cpu}})
	}
	push()
	d.Step(1)
	now := 20.0
	for i := 0; i < 5; i++ {
		push()
		d.Step(now)
		now += d.Interval()
	}
	if d.Interval() <= 20 {
		t.Fatalf("interval = %v, want backed off", d.Interval())
	}
	// Arrival resets the backoff.
	rt.set([]flowcon.Stat{
		{ID: "a", Eval: 42, CPUSeconds: cpu},
		{ID: "b", Eval: 10, CPUSeconds: 0},
	})
	d.Step(now)
	if got := d.Interval(); got != 20 && got != 40 {
		// 20 if the pool is not all-completing after the arrival run;
		// 40 if it immediately doubled (cannot happen with b undefined).
		t.Fatalf("interval after arrival = %v", got)
	}
}

func TestDriverAppliesLimits(t *testing.T) {
	rt := newFakeRuntime()
	d := NewDriver(cfg(), rt)
	// Two containers: one growing, one stalled; after three intervals the
	// stalled one reaches CL and gets the floor 1/(2*2) = 0.25.
	eval := 100.0
	cpu := 0.0
	step := func(now float64) {
		eval -= 20 // grower improves
		cpu += 10
		rt.set([]flowcon.Stat{
			{ID: "grow", Eval: eval, CPUSeconds: cpu},
			{ID: "stall", Eval: 7, CPUSeconds: cpu},
		})
		d.Step(now)
	}
	step(1)
	step(20)
	step(40)
	step(60)
	if l, _ := d.ListOf("stall"); l != flowcon.CompletingList {
		t.Fatalf("stall in %v, want CL", l)
	}
	if got := rt.limit("stall"); got != 0.25 {
		t.Fatalf("stall limit = %v, want 0.25", got)
	}
	if got := rt.limit("grow"); got < 0.9 {
		t.Fatalf("grow limit = %v, want ~1", got)
	}
}

func TestDriverWallClockLoop(t *testing.T) {
	rt := newFakeRuntime()
	rt.set([]flowcon.Stat{{ID: "a", Eval: 100, CPUSeconds: 0}})
	// Sub-second interval so the test finishes quickly.
	d := NewDriver(flowcon.Config{Alpha: 0.05, InitialInterval: 0.05}, rt)

	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	done := make(chan struct{})
	go func() {
		d.Run(ctx, 10*time.Millisecond)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Run did not stop on context cancel")
	}
	if d.Runs() < 2 {
		t.Fatalf("wall-clock loop executed Algorithm 1 only %d times", d.Runs())
	}
}

// A status reporter reads the driver from another goroutine while Run
// polls, as flowcon-manager's reportLoop and examples/livemode do. Under
// -race this must report nothing.
func TestDriverAccessorsConcurrentWithRun(t *testing.T) {
	rt := newFakeRuntime()
	d := NewDriver(flowcon.Config{Alpha: 0.05, InitialInterval: 0.001}, rt)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		d.Run(ctx, time.Millisecond)
		close(done)
	}()
	defer func() {
		cancel()
		<-done
	}()

	ids := []string{"a", "b", "c"}
	deadline := time.Now().Add(2 * time.Second)
	for i := 0; d.Runs() < 20; i++ {
		if time.Now().After(deadline) {
			t.Fatalf("only %d runs before the deadline", d.Runs())
		}
		// Grow and shrink the pool so runs insert and prune list entries.
		var stats []flowcon.Stat
		for j, id := range ids[:i%len(ids)+1] {
			stats = append(stats, flowcon.Stat{ID: id, Eval: float64(100 - i - j), CPUSeconds: float64(i)})
		}
		rt.set(stats)
		for _, id := range ids {
			d.ListOf(id)
		}
		d.Interval()
		time.Sleep(time.Millisecond)
	}
}

// reuseRuntime hands back one stats slice with advancing counters and
// applies limits without allocating, so only Step's own allocations show.
type reuseRuntime struct{ stats []flowcon.Stat }

func (r *reuseRuntime) RunningStats() []flowcon.Stat {
	for i := range r.stats {
		r.stats[i].CPUSeconds += 0.5
		r.stats[i].Eval *= 0.95
	}
	return r.stats
}

func (r *reuseRuntime) SetCPULimit(string, float64) error { return nil }

// TestDriverStepAllocsZero guards the live cycle: over a steady pool, a
// Step that runs Algorithm 1 allocates nothing.
func TestDriverStepAllocsZero(t *testing.T) {
	rt := &reuseRuntime{}
	for i := 0; i < 32; i++ {
		rt.stats = append(rt.stats, flowcon.Stat{ID: fmt.Sprintf("c%02d", i), Eval: 100})
	}
	d := NewDriver(flowcon.Config{Alpha: 0.03, InitialInterval: 20}, rt)
	now := 0.0
	d.Step(now)
	avg := testing.AllocsPerRun(200, func() {
		now += d.Interval()
		if !d.Step(now) {
			t.Fatalf("no run at %v", now)
		}
	})
	if avg != 0 {
		t.Fatalf("Driver.Step allocates %.1f objects per cycle, want 0", avg)
	}
}

func TestNewDriverValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("nil runtime did not panic")
		}
	}()
	NewDriver(cfg(), nil)
}

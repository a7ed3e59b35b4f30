package flowcon

import (
	"math"
	"slices"
	"testing"

	"repro/internal/sim"
)

// fakeRuntime is a scriptable Runtime for controller tests.
type fakeRuntime struct {
	stats  []Stat
	limits map[string]float64
	calls  int
}

func newFakeRuntime() *fakeRuntime {
	return &fakeRuntime{limits: make(map[string]float64)}
}

func (f *fakeRuntime) RunningStats() []Stat { return f.stats }

func (f *fakeRuntime) SetCPULimit(id string, limit float64) error {
	f.limits[id] = limit
	f.calls++
	return nil
}

// recordingTracer captures trace entries, copying each one's Containers
// out of the controller's reused buffer.
type recordingTracer struct{ entries []TraceEntry }

func (r *recordingTracer) RecordRun(e TraceEntry) {
	e.Containers = slices.Clone(e.Containers)
	r.entries = append(r.entries, e)
}

func TestControllerTickCadence(t *testing.T) {
	e := sim.NewEngine()
	rt := newFakeRuntime()
	// One container growing forever: no backoff, ticks every 20s.
	rt.stats = []Stat{{ID: "a", Eval: 0, CPUSeconds: 0}}
	c := NewController(Config{Alpha: 0.05, InitialInterval: 20}, e, rt, nil)
	c.OnContainerStart("a")

	eval, cpu := 0.0, 0.0
	e.At(0, sim.PriorityState, "drive", func() {})
	// Drive the fake container: each second eval rises 1 and cpu 0.9.
	var pump func()
	pump = func() {
		eval += 1
		cpu += 0.9
		rt.stats = []Stat{{ID: "a", Eval: eval, CPUSeconds: cpu}}
		if e.Now() < 100 {
			e.After(1, sim.PriorityState, "pump", pump)
		}
	}
	e.After(1, sim.PriorityState, "pump", pump)
	c.Start()
	e.Run(100)

	// Runs: 1 immediate (arrival) + ticks at 20,40,60,80,100.
	if c.Runs() != 6 {
		t.Fatalf("Runs = %d, want 6", c.Runs())
	}
	if l, _ := c.ListOf("a"); l != NewList {
		t.Fatalf("healthy grower in %v, want NL", l)
	}
}

func TestControllerBackoffWhenAllCompleting(t *testing.T) {
	e := sim.NewEngine()
	rt := newFakeRuntime()
	// Static eval: zero progress -> container descends to CL, then the
	// interval doubles 20,40,80...
	cpu := 0.0
	c := NewController(Config{Alpha: 0.05, InitialInterval: 20}, e, rt, nil)
	c.OnContainerStart("a")
	var pump func()
	pump = func() {
		cpu += 0.9
		rt.stats = []Stat{{ID: "a", Eval: 42, CPUSeconds: cpu}}
		if e.Now() < 400 {
			e.After(1, sim.PriorityState, "pump", pump)
		}
	}
	rt.stats = []Stat{{ID: "a", Eval: 42, CPUSeconds: 0}}
	e.After(1, sim.PriorityState, "pump", pump)
	c.Start()
	e.Run(400)

	if l, _ := c.ListOf("a"); l != CompletingList {
		t.Fatalf("stalled container in %v, want CL", l)
	}
	if c.Interval() <= 20 {
		t.Fatalf("interval = %v, want backed off beyond 20", c.Interval())
	}
	// Under all-completing the effective limit is 1. The runtime default
	// is already 1, so the controller either never called SetCPULimit or
	// set it to exactly 1 — anything else is a bug.
	if l, ok := rt.limits["a"]; ok && l != 1 {
		t.Fatalf("limit = %v, want 1 under free competition", l)
	}
	// Backoff means far fewer runs than 400/20.
	if c.Runs() >= 20 {
		t.Fatalf("Runs = %d, backoff did not reduce cadence", c.Runs())
	}
}

func TestControllerArrivalResetsBackoff(t *testing.T) {
	e := sim.NewEngine()
	rt := newFakeRuntime()
	cpu := 0.0
	c := NewController(Config{Alpha: 0.05, InitialInterval: 20}, e, rt, nil)
	c.OnContainerStart("a")
	rt.stats = []Stat{{ID: "a", Eval: 42, CPUSeconds: 0}}
	var pump func()
	pump = func() {
		cpu += 0.9
		rt.stats = []Stat{{ID: "a", Eval: 42, CPUSeconds: cpu}}
		if e.Now() < 300 {
			e.After(1, sim.PriorityState, "pump", pump)
		}
	}
	e.After(1, sim.PriorityState, "pump", pump)
	c.Start()
	e.Run(200) // container a long since in CL, interval backed off
	if c.Interval() <= 20 {
		t.Fatalf("precondition failed: interval %v not backed off", c.Interval())
	}
	// New container arrives: Algorithm 2 resets itval and runs now.
	runsBefore := c.Runs()
	e.At(200, sim.PriorityState, "arrive", func() {
		c.OnContainerStart("b")
		rt.stats = []Stat{
			{ID: "a", Eval: 42, CPUSeconds: cpu},
			{ID: "b", Eval: 10, CPUSeconds: 0},
		}
	})
	e.Run(201)
	if c.Runs() != runsBefore+1 {
		t.Fatalf("arrival did not trigger an immediate run (%d -> %d)", runsBefore, c.Runs())
	}
	if c.Interval() != 20 {
		t.Fatalf("interval = %v after arrival, want reset to 20", c.Interval())
	}
	if l, _ := c.ListOf("b"); l != NewList {
		t.Fatalf("arrival in %v, want NL", l)
	}
}

func TestControllerDepartureCleansUp(t *testing.T) {
	e := sim.NewEngine()
	rt := newFakeRuntime()
	c := NewController(Config{Alpha: 0.05, InitialInterval: 20}, e, rt, nil)
	c.OnContainerStart("a")
	c.OnContainerStart("b")
	rt.stats = []Stat{{ID: "a", Eval: 1, CPUSeconds: 0}, {ID: "b", Eval: 1, CPUSeconds: 0}}
	c.Start()
	e.Run(50)
	e.At(60, sim.PriorityState, "exit-b", func() {
		rt.stats = []Stat{{ID: "a", Eval: 1, CPUSeconds: 30}}
		c.OnContainerExit("b")
	})
	e.Run(61)
	if _, ok := c.ListOf("b"); ok {
		t.Fatal("departed container still listed")
	}
	// Algorithm 2 resets itval to 20 and runs Algorithm 1; the remaining
	// container is all-Completing, so that run doubles it once to 40 —
	// but never continues from the pre-departure backoff value.
	if c.Interval() != 40 {
		t.Fatalf("interval = %v after departure, want 40 (reset 20, one doubling)", c.Interval())
	}
}

func TestControllerDedupesSameInstantArrivals(t *testing.T) {
	e := sim.NewEngine()
	rt := newFakeRuntime()
	c := NewController(Config{Alpha: 0.05, InitialInterval: 20}, e, rt, nil)
	e.At(5, sim.PriorityState, "burst", func() {
		c.OnContainerStart("a")
		c.OnContainerStart("b")
		c.OnContainerStart("c")
		rt.stats = []Stat{
			{ID: "a", Eval: 1, CPUSeconds: 0},
			{ID: "b", Eval: 1, CPUSeconds: 0},
			{ID: "c", Eval: 1, CPUSeconds: 0},
		}
	})
	c.Start()
	e.Run(6)
	// One listener run for the burst, not three.
	if c.Runs() != 1 {
		t.Fatalf("Runs = %d for same-instant burst, want 1", c.Runs())
	}
}

func TestControllerTracer(t *testing.T) {
	e := sim.NewEngine()
	rt := newFakeRuntime()
	tr := &recordingTracer{}
	c := NewController(Config{Alpha: 0.05, InitialInterval: 20}, e, rt, tr)
	c.OnContainerStart("a")
	rt.stats = []Stat{{ID: "a", Eval: 1, CPUSeconds: 0}}
	c.Start()
	e.Run(45)
	if len(tr.entries) == 0 {
		t.Fatal("tracer received no entries")
	}
	first := tr.entries[0]
	if first.Trigger != "arrival" {
		t.Fatalf("first trigger = %q, want arrival", first.Trigger)
	}
	for _, entry := range tr.entries {
		for _, tc := range entry.Containers {
			if tc.ID != "a" {
				t.Fatalf("unexpected container %q in trace", tc.ID)
			}
			if tc.GDefined && (math.IsNaN(tc.G) || tc.G < 0) {
				t.Fatalf("bad G in trace: %v", tc.G)
			}
		}
	}
}

func TestControllerSkipsRedundantLimitCalls(t *testing.T) {
	e := sim.NewEngine()
	rt := newFakeRuntime()
	c := NewController(Config{Alpha: 0.05, InitialInterval: 10}, e, rt, nil)
	c.OnContainerStart("a")
	// Constant growth -> same limit decision every tick; docker update
	// should not be spammed.
	eval, cpu := 0.0, 0.0
	rt.stats = []Stat{{ID: "a", Eval: 0, CPUSeconds: 0}}
	var pump func()
	pump = func() {
		eval += 1
		cpu += 1
		rt.stats = []Stat{{ID: "a", Eval: eval, CPUSeconds: cpu}}
		if e.Now() < 100 {
			e.After(1, sim.PriorityState, "pump", pump)
		}
	}
	e.After(1, sim.PriorityState, "pump", pump)
	c.Start()
	e.Run(100)
	if rt.calls > 2 {
		t.Fatalf("SetCPULimit called %d times for a steady container", rt.calls)
	}
}

func TestNewControllerValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("nil runtime did not panic")
		}
	}()
	NewController(Config{Alpha: 0.05, InitialInterval: 20}, sim.NewEngine(), nil, nil)
}

// Containers that vanish from RunningStats without an OnContainerExit
// notification (e.g. a worker failure path that kills the container behind
// the listener's back) must not leave entries in lists/limits/monitor
// forever.
func TestControllerPrunesStaleEntries(t *testing.T) {
	e := sim.NewEngine()
	rt := newFakeRuntime()
	rt.stats = []Stat{
		{ID: "a", Eval: 1, CPUSeconds: 1},
		{ID: "b", Eval: 1, CPUSeconds: 1},
	}
	c := NewController(Config{Alpha: 0.05, InitialInterval: 20}, e, rt, nil)
	c.OnContainerStart("a")
	c.OnContainerStart("b")
	c.Start()
	e.Run(25) // arrival runs at t=0 plus the tick at t=20

	if _, ok := c.ListOf("b"); !ok {
		t.Fatal("precondition: b not tracked after start")
	}

	// "b" disappears without an exit notification.
	rt.stats = []Stat{{ID: "a", Eval: 2, CPUSeconds: 2}}
	e.Run(45) // next tick at t=40 observes the shrunken pool

	if l, ok := c.ListOf("b"); ok {
		t.Fatalf("stale container still tracked in %v after pruning tick", l)
	}
	if _, ok := c.LimitOf("b"); ok {
		t.Fatal("stale container still holds a limit entry")
	}
	if _, ok := c.ListOf("a"); !ok {
		t.Fatal("live container was pruned")
	}
	if n := len(c.slots); n != 1 {
		t.Fatalf("cycle tracks %d containers, want 1", n)
	}
}

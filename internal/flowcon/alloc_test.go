package flowcon

import (
	"fmt"
	"testing"

	"repro/internal/sim"
)

// allocRuntime feeds the controller advancing counters without touching a
// daemon, isolating runAlgorithm1's own allocation behaviour.
type allocRuntime struct{ stats []Stat }

func (r *allocRuntime) RunningStats() []Stat {
	for i := range r.stats {
		r.stats[i].CPUSeconds += 0.5
		r.stats[i].Eval *= 0.95
	}
	return r.stats
}

func (r *allocRuntime) SetCPULimit(string, float64) error { return nil }

// countingTracer counts the containers it is shown, so tracing stays on
// the measured path without keeping anything.
type countingTracer struct{ containers int }

func (c *countingTracer) RecordRun(e TraceEntry) { c.containers += len(e.Containers) }

// TestRunAlgorithm1AllocsBounded is the regression guard for the executor
// hot path: one full measure→classify→plan→apply→trace cycle over a
// steady pool may allocate only the Events it schedules — every other
// buffer (slots, snapshots, classification lists, decisions, the trace's
// containers, the listener callback) is reused across runs. A tick run
// schedules one Event, the rescheduled tick; a listener-triggered run two,
// its own and the rescheduled tick.
func TestRunAlgorithm1AllocsBounded(t *testing.T) {
	eng := sim.NewEngine()
	rt := &allocRuntime{}
	for i := 0; i < 32; i++ {
		rt.stats = append(rt.stats, Stat{ID: fmt.Sprintf("c%02d", i), Eval: 100})
	}
	tr := &countingTracer{}
	c := NewController(Config{Alpha: 0.03, InitialInterval: 20}, eng, rt, tr)
	c.Start()
	horizon := sim.Time(0)
	avg := testing.AllocsPerRun(200, func() {
		horizon += 1
		eng.Run(horizon)
		c.runAlgorithm1("tick")
	})
	if avg > 1 {
		t.Fatalf("a tick run allocates %.1f objects, want <= 1 (the tick event)", avg)
	}
	runs := c.Runs()
	avg = testing.AllocsPerRun(200, func() {
		horizon += 1
		c.OnContainerStart("c00") // a start the stats already listed
		eng.Run(horizon)
	})
	if avg > 2 {
		t.Fatalf("a listener-triggered run allocates %.1f objects, want <= 2 (its event and the tick event)", avg)
	}
	if c.Runs() != runs+201 || tr.containers != 32*c.Runs() {
		t.Fatalf("%d listener runs traced %d containers, want 201 runs of 32", c.Runs()-runs, tr.containers)
	}
}

// TestMonitorCollectAllocsZero guards the monitor's per-interval path in
// isolation: steady pools must collect into reused scratch.
func TestMonitorCollectAllocsZero(t *testing.T) {
	m := NewMonitor()
	var stats []Stat
	for i := 0; i < 32; i++ {
		stats = append(stats, Stat{ID: fmt.Sprintf("c%02d", i), Eval: 100})
	}
	now := 0.0
	m.Collect(now, stats) // first pass defines the baseline
	avg := testing.AllocsPerRun(200, func() {
		now += 1
		for i := range stats {
			stats[i].CPUSeconds += 0.5
			stats[i].Eval *= 0.95
		}
		if got := m.Collect(now, stats); len(got) != len(stats) {
			t.Fatalf("collected %d measurements", len(got))
		}
	})
	if avg != 0 {
		t.Fatalf("Monitor.Collect allocates %.1f objects per call, want 0", avg)
	}
}

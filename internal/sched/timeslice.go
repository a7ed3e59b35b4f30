package sched

import (
	"sort"

	"repro/internal/runtime"
	"repro/internal/sim"
)

// TimeSlice is a Gandiva-style time-slicing baseline (Xiao et al., OSDI'18,
// discussed in the paper's related work): instead of weighting containers
// by training progress, it gives a rotating subset of containers the whole
// node for a quantum and parks the rest at a nominal weight. Gandiva
// applies this to GPUs where co-location is expensive; the CPU analog
// trades FlowCon's progress awareness for strict temporal isolation.
type TimeSlice struct {
	// Slots is how many containers run concurrently per quantum
	// (default 2).
	Slots int
	// Quantum is seconds between rotations (default 60).
	Quantum float64
	// ParkedWeight is the limit applied to containers outside the active
	// set (default 0.02 — enough to keep the runtime responsive, as
	// Gandiva keeps suspended jobs resident).
	ParkedWeight float64

	order  []string
	cursor int
}

// Name implements Policy.
func (ts *TimeSlice) Name() string { return "TimeSlice" }

// Attach implements Policy.
func (ts *TimeSlice) Attach(engine sim.Scheduler, node Node) {
	if ts.Slots <= 0 {
		ts.Slots = 2
	}
	if ts.Quantum <= 0 {
		ts.Quantum = 60
	}
	if ts.ParkedWeight <= 0 {
		ts.ParkedWeight = 0.02
	}

	node.OnStart(func(c runtime.Container) {
		ts.order = append(ts.order, c.ID)
		// Re-apply at listener priority so the pool reflects the arrival.
		engine.At(engine.Now(), sim.PriorityListener, "timeslice.arrival", func() {
			ts.apply(node)
		})
	})
	node.OnExit(func(c runtime.Container) {
		for i, oid := range ts.order {
			if oid == c.ID {
				ts.order = append(ts.order[:i], ts.order[i+1:]...)
				if ts.cursor > i {
					ts.cursor--
				}
				break
			}
		}
		engine.At(engine.Now(), sim.PriorityListener, "timeslice.exit", func() {
			ts.apply(node)
		})
	})

	var rotate func()
	rotate = func() {
		ts.advance()
		ts.apply(node)
		engine.After(ts.Quantum, sim.PriorityExecutor, "timeslice.rotate", rotate)
	}
	engine.After(ts.Quantum, sim.PriorityExecutor, "timeslice.rotate", rotate)
}

// advance moves the round-robin cursor by Slots.
func (ts *TimeSlice) advance() {
	if len(ts.order) == 0 {
		ts.cursor = 0
		return
	}
	ts.cursor = (ts.cursor + ts.Slots) % len(ts.order)
}

// apply sets the active set to weight 1 and parks everyone else.
func (ts *TimeSlice) apply(node Node) {
	if len(ts.order) == 0 {
		return
	}
	active := make(map[string]bool, ts.Slots)
	for i := 0; i < ts.Slots && i < len(ts.order); i++ {
		active[ts.order[(ts.cursor+i)%len(ts.order)]] = true
	}
	// Apply in stable order for determinism.
	ids := append([]string(nil), ts.order...)
	sort.Strings(ids)
	for _, id := range ids {
		limit := ts.ParkedWeight
		if active[id] {
			limit = 1.0
		}
		// Exit races within the instant are benign.
		_ = node.SetCPULimit(id, limit)
	}
}

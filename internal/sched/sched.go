// Package sched defines the resource-management policies compared in the
// evaluation: FlowCon itself, a static equal-share configuration, and a
// SLAQ-like quality-driven baseline from the related work (Zhang et al.,
// SoCC'17) used in the ablation benches. The paper's NA baseline (default
// Docker free competition) is internal/experiment's passive observer,
// which installs no limit.
//
// A Policy attaches to a worker at experiment setup; everything it needs —
// settled stats, limit updates, arrival/exit notifications — comes through
// the narrow Node interface, so policies never reach into the simulator.
package sched

import (
	"fmt"
	"sort"

	"repro/internal/flowcon"
	"repro/internal/sim"
)

// Node is the worker-side surface a policy manages.
type Node interface {
	flowcon.Runtime
	OnContainerStart(fn func(id string))
	OnContainerExit(fn func(id string))
	RunningCount() int
}

// Policy is a worker resource-management strategy.
type Policy interface {
	// Name identifies the policy in reports ("FlowCon", "NA", ...).
	Name() string
	// Attach wires the policy to a node. Called once per worker before
	// the simulation starts. The scheduler is the worker's lane in a
	// sharded simulation, so everything the policy schedules stays on the
	// worker's shard.
	Attach(engine sim.Scheduler, node Node)
}

// FlowCon runs the paper's controller on the worker.
type FlowCon struct {
	Config flowcon.Config
	Tracer flowcon.Tracer
	// NoListeners disables Algorithm 2's real-time arrival/departure
	// interrupts, leaving only the periodic executor — the ablation that
	// quantifies what the paper's listeners buy. New containers are then
	// picked up at the next tick instead of immediately.
	NoListeners bool

	controller *flowcon.Controller
}

// Name implements Policy, encoding the (α, itval) setting the way the
// paper labels its figure series, e.g. "FlowCon-5%-20".
func (f *FlowCon) Name() string {
	return fmt.Sprintf("FlowCon-%g%%-%g", f.Config.Alpha*100, f.Config.InitialInterval)
}

// Attach implements Policy.
func (f *FlowCon) Attach(engine sim.Scheduler, node Node) {
	f.controller = flowcon.NewController(f.Config, engine, node, f.Tracer)
	if !f.NoListeners {
		node.OnContainerStart(f.controller.OnContainerStart)
		node.OnContainerExit(f.controller.OnContainerExit)
	}
	f.controller.Start()
}

// Controller exposes the attached controller (nil before Attach), for
// overhead inspection in tests and benches.
func (f *FlowCon) Controller() *flowcon.Controller { return f.controller }

// StaticEqual reconfigures every running container to an equal limit 1/n
// on each arrival and departure — the "set an upper limit when
// initializing" strawman from Section 2.2, kept adaptive only in n.
//
// Under the proportional-share limit semantics this reproduction uses
// (docker --cpu-shares, see internal/resource), a uniform limit vector
// renormalizes to exactly the NA baseline's fair shares — so StaticEqual
// matching NA in every experiment is itself a correctness check of the
// allocator's scale invariance, and a demonstration of the paper's point
// that static configuration cannot beat free competition.
type StaticEqual struct{}

// Name implements Policy.
func (StaticEqual) Name() string { return "StaticEqual" }

// Attach implements Policy.
func (StaticEqual) Attach(engine sim.Scheduler, node Node) {
	rebalance := func(string) {
		// Defer to listener priority so the pool reflects the change.
		engine.At(engine.Now(), sim.PriorityListener, "static.rebalance", func() {
			stats := node.RunningStats()
			if len(stats) == 0 {
				return
			}
			share := 1.0 / float64(len(stats))
			for _, s := range stats {
				// Ignore exit races within the instant.
				_ = node.SetCPULimit(s.ID, share)
			}
		})
	}
	node.OnContainerStart(rebalance)
	node.OnContainerExit(rebalance)
}

// SLAQ is a quality-driven baseline in the spirit of SLAQ (related work):
// every Interval seconds it measures each job's progress score and sets
// limits proportional to normalized quality improvement. Unlike FlowCon it
// has no listener interrupts (the paper's criticism: "SLAQ fails to
// allocate the resources at real-time"), no watch-list hysteresis, and no
// exponential back-off.
type SLAQ struct {
	// Interval between reconfigurations (seconds). Zero defaults to 20.
	Interval float64
	// MinShare floors each job's limit; zero defaults to 0.05.
	MinShare float64

	monitor *flowcon.Monitor
	// peak tracks each job's largest observed progress score, used to
	// normalize heterogeneous eval scales the way SLAQ normalizes quality
	// measures.
	peak map[string]float64
}

// Name implements Policy.
func (s *SLAQ) Name() string { return "SLAQ-like" }

// Attach implements Policy.
func (s *SLAQ) Attach(engine sim.Scheduler, node Node) {
	if s.Interval == 0 {
		s.Interval = 20
	}
	if s.MinShare == 0 {
		s.MinShare = 0.05
	}
	s.monitor = flowcon.NewMonitor()
	s.peak = make(map[string]float64)

	var tick func()
	tick = func() {
		s.rebalance(float64(engine.Now()), node)
		engine.After(s.Interval, sim.PriorityExecutor, "slaq.tick", tick)
	}
	engine.After(s.Interval, sim.PriorityExecutor, "slaq.tick", tick)
}

// rebalance computes normalized progress shares and applies them.
func (s *SLAQ) rebalance(now float64, node Node) {
	stats := node.RunningStats()
	measurements := s.monitor.Collect(now, stats)

	type share struct {
		id string
		v  float64
	}
	shares := make([]share, 0, len(measurements))
	sum := 0.0
	for _, m := range measurements {
		if !m.Defined {
			// New job: full normalized progress until measured.
			shares = append(shares, share{m.ID, 1})
			sum++
			continue
		}
		if m.P > s.peak[m.ID] {
			s.peak[m.ID] = m.P
		}
		v := 0.0
		if p := s.peak[m.ID]; p > 0 {
			v = m.P / p
		}
		shares = append(shares, share{m.ID, v})
		sum += v
	}
	if sum <= 0 {
		return
	}
	sort.Slice(shares, func(i, j int) bool { return shares[i].id < shares[j].id })
	for _, sh := range shares {
		limit := sh.v / sum
		if limit < s.MinShare {
			limit = s.MinShare
		}
		if limit > 1 {
			limit = 1
		}
		_ = node.SetCPULimit(sh.id, limit)
	}
}

package main

import (
	"time"

	"repro/internal/cluster"
	"repro/internal/dlmodel"
	"repro/internal/experiment"
	"repro/internal/flowcon"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/workload"
)

// span accumulates one seam's calls and wall time.
type span struct {
	calls int
	ns    time.Duration
}

func (s *span) since(t0 time.Time) {
	s.calls++
	s.ns += time.Since(t0)
}

func (s span) seconds() float64 { return s.ns.Seconds() }

// seams measures the simulator's layers from outside, by wrapping the
// hooks experiment.Spec already exposes: the placement function, the
// arrival stream, and the policy factory — through which the policy's
// scheduler, its node and its tracer are reached. The wrappers forward
// every call unchanged, so a wrapped run simulates exactly what an
// unwrapped one does (a test pins that). They are not safe for the
// sharded engine's concurrent lanes; the traced repetition is serial.
//
// Span nesting: cycle ⊃ {stats, setLimit, recordRun}. A cycle is any
// closure the policy scheduled — Algorithm 1's ticks and listener runs.
type seams struct {
	place, next, cycle, stats, setLimit, recordRun span
	// setLimitOK counts SetCPULimit calls that succeeded — what
	// Controller.LimitUpdates counts.
	setLimitOK int
	// wrapped is set once wrap has run on a spec.
	wrapped bool
}

// cycleSelf is cycle time not spent in the wrapped calls below it.
func (s *seams) cycleSelf() time.Duration {
	return s.cycle.ns - s.stats.ns - s.setLimit.ns - s.recordRun.ns
}

// wrap installs the wrappers on a spec.
func (s *seams) wrap(spec *experiment.Spec) {
	s.wrapped = true
	place := spec.Placement
	if place == nil {
		place = cluster.LeastLoaded // the runner's default
	}
	spec.Placement = func(workers []*cluster.Worker, p dlmodel.Profile) *cluster.Worker {
		defer s.place.since(time.Now())
		return place(workers, p)
	}
	if spec.Arrivals != nil {
		spec.Arrivals = &tracedStream{inner: spec.Arrivals, s: s}
	}
	newPolicy := spec.NewPolicy
	spec.NewPolicy = func(tr flowcon.Tracer) sched.Policy {
		return &tracedPolicy{inner: newPolicy(&tracedTracer{inner: tr, s: s}), s: s}
	}
}

type tracedStream struct {
	inner workload.ArrivalStream
	s     *seams
}

func (t *tracedStream) Next() (workload.Submission, bool) {
	defer t.s.next.since(time.Now())
	return t.inner.Next()
}

func (t *tracedStream) Err() error { return t.inner.Err() }

type tracedTracer struct {
	inner flowcon.Tracer
	s     *seams
}

func (t *tracedTracer) RecordRun(e flowcon.TraceEntry) {
	defer t.s.recordRun.since(time.Now())
	t.inner.RecordRun(e)
}

type tracedPolicy struct {
	inner sched.Policy
	s     *seams
}

func (p *tracedPolicy) Name() string { return p.inner.Name() }

func (p *tracedPolicy) Attach(engine sim.Scheduler, node sched.Node) {
	p.inner.Attach(&tracedScheduler{inner: engine, s: p.s}, &tracedNode{Node: node, s: p.s})
}

// tracedScheduler times every closure the policy schedules.
type tracedScheduler struct {
	inner sim.Scheduler
	s     *seams
}

func (t *tracedScheduler) Now() sim.Time { return t.inner.Now() }

func (t *tracedScheduler) timed(fn func()) func() {
	return func() {
		defer t.s.cycle.since(time.Now())
		fn()
	}
}

func (t *tracedScheduler) At(at sim.Time, prio sim.Priority, name string, fn func()) *sim.Event {
	return t.inner.At(at, prio, name, t.timed(fn))
}

func (t *tracedScheduler) After(d sim.Duration, prio sim.Priority, name string, fn func()) *sim.Event {
	return t.inner.After(d, prio, name, t.timed(fn))
}

// tracedNode times the two calls Algorithm 1 makes into the container
// runtime; the listener registrations and RunningCount pass through the
// embedded Node.
type tracedNode struct {
	sched.Node
	s *seams
}

func (n *tracedNode) RunningStats() []flowcon.Stat {
	defer n.s.stats.since(time.Now())
	return n.Node.RunningStats()
}

func (n *tracedNode) SetCPULimit(id string, limit float64) error {
	t0 := time.Now()
	err := n.Node.SetCPULimit(id, limit)
	n.s.setLimit.since(t0)
	if err == nil {
		n.s.setLimitOK++
	}
	return err
}

package faults

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"strconv"

	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Injector drives a Plan against a live cluster. Every event it schedules
// rides the cluster's serial lane (the engine passed to Attach), so
// sharded runs stay byte-identical: a fault is an epoch boundary exactly
// like a manager event.
type Injector struct {
	engine *sim.Engine
	m      *cluster.Manager
	plan   Plan

	// setCapacity applies a degraded-node factor to worker i (1 restores
	// nominal capacity). The injector cannot reach the backend itself —
	// capacity lives beneath the runtime interface — so the assembler
	// wires the knob in.
	setCapacity func(worker int, factor float64)
	// degraded marks workers currently inside an episode, so overlapping
	// episodes never compound.
	degraded map[int]bool
}

// Attach validates the plan against the manager's cluster and schedules
// its fault processes on the engine, seeded deterministically. The
// setCapacity callback is required when the plan (or its script) degrades
// nodes; pass nil otherwise. Attach before the run starts.
func Attach(engine *sim.Engine, m *cluster.Manager, plan Plan, seed int64,
	setCapacity func(worker int, factor float64)) (*Injector, error) {
	workers := m.Workers()
	if err := plan.Validate(len(workers)); err != nil {
		return nil, err
	}
	needsCapacity := plan.Degrade != nil
	for _, s := range plan.Script {
		if s.Kind == KindDegrade {
			needsCapacity = true
		}
	}
	if needsCapacity && setCapacity == nil {
		return nil, fmt.Errorf("faults: plan degrades nodes but no setCapacity callback was wired")
	}
	in := &Injector{
		engine:      engine,
		m:           m,
		plan:        plan,
		setCapacity: setCapacity,
		degraded:    make(map[int]bool),
	}
	if plan.Churn != nil {
		for i := range workers {
			in.scheduleCrash(i, subRNG(seed, "churn", i))
		}
	}
	if plan.Kills != nil {
		in.scheduleKill(subRNG(seed, "kills", 0))
	}
	if plan.Degrade != nil {
		in.scheduleDegrade(subRNG(seed, "degrade", 0))
	}
	for i, s := range plan.Script {
		s := s
		engine.At(sim.Time(s.At), sim.PriorityState,
			fmt.Sprintf("faults.script.%d.%s", i, s.Kind), func() { in.runScripted(s) })
	}
	return in, nil
}

// subRNG derives one stream's generator from the base seed, workload
// style: each (stream, index) pair owns an independent deterministic
// sequence, consumed only by its own serial event chain.
func subRNG(seed int64, stream string, idx int) *rand.Rand {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%d", stream, idx)
	return rand.New(rand.NewSource(seed ^ int64(h.Sum64())))
}

// beyond reports whether a fault initiated after the given delay would
// cross the plan's injection bound.
func (in *Injector) beyond(delay float64) bool {
	return in.plan.UntilSec > 0 && float64(in.engine.Now())+delay > in.plan.UntilSec
}

// trace emits one chaos span into the manager's tracer (nil-safe).
func (in *Injector) trace(phase telemetry.Phase, job, worker, note string) {
	in.m.Tracer().Record(float64(in.engine.Now()), phase, job, worker, note)
}

// scheduleCrash arms worker i's next crash; the chain ends when the next
// crash would land past UntilSec.
func (in *Injector) scheduleCrash(i int, rng *rand.Rand) {
	gap := rng.ExpFloat64() * in.plan.Churn.MTBFSec
	if in.beyond(gap) {
		return
	}
	in.engine.After(gap, sim.PriorityState, "faults.crash", func() {
		in.crash(i, rng)
	})
}

// crash fails worker i (the manager's OnFail hook does the accounting
// and rescheduling) and arms its repair.
func (in *Injector) crash(i int, rng *rand.Rand) {
	w := in.m.Workers()[i]
	if !w.Failed() {
		w.Fail()
	}
	ttr := rng.ExpFloat64() * in.plan.Churn.MTTRSec
	in.engine.After(ttr, sim.PriorityState, "faults.repair", func() {
		if w.Failed() {
			w.Repair()
		}
		in.scheduleCrash(i, rng)
	})
}

// scheduleKill arms the next transient-container kill.
func (in *Injector) scheduleKill(rng *rand.Rand) {
	gap := rng.ExpFloat64() * in.plan.Kills.MeanIntervalSec
	if in.beyond(gap) {
		return
	}
	in.engine.After(gap, sim.PriorityState, "faults.kill", func() { in.kill(rng) })
}

// kill picks one running container uniformly across live workers —
// workers in declaration order, containers in creation order, so the
// victim is a pure function of the draw and the (deterministic) cluster
// state — and fails it in place.
func (in *Injector) kill(rng *rand.Rand) {
	workers := in.m.Workers()
	total := 0
	for _, w := range workers {
		if !w.Failed() {
			total += w.RunningCount()
		}
	}
	if total > 0 {
		k := rng.Intn(total)
		for _, w := range workers {
			if w.Failed() {
				continue
			}
			n := w.RunningCount()
			if k >= n {
				k -= n
				continue
			}
			victim := w.PS(false)[k]
			// A frozen or just-exited victim makes FailContainer error —
			// the attempt is simply a dud, like a kill racing an exit on
			// real hardware.
			_ = in.m.FailContainer(victim.Name)
			break
		}
	}
	in.scheduleKill(rng)
}

// scheduleDegrade arms the next degraded-node episode.
func (in *Injector) scheduleDegrade(rng *rand.Rand) {
	gap := rng.ExpFloat64() * in.plan.Degrade.MeanIntervalSec
	if in.beyond(gap) {
		return
	}
	in.engine.After(gap, sim.PriorityState, "faults.degrade", func() { in.degrade(rng) })
}

// degrade drops one worker to degradeFactor of its capacity for an
// exponential episode. Already-degraded and failed workers are skipped
// (the draw is still consumed, keeping the stream aligned).
func (in *Injector) degrade(rng *rand.Rand) {
	pick := rng.Intn(len(in.m.Workers()))
	w := in.m.Workers()[pick]
	if !in.degraded[pick] && !w.Failed() {
		in.degraded[pick] = true
		in.setCapacity(pick, degradeFactor)
		in.m.Availability().Degradations++
		in.trace(telemetry.PhaseDegrade, "", w.Name(),
			"factor "+strconv.FormatFloat(degradeFactor, 'g', -1, 64))
		dur := rng.ExpFloat64() * in.plan.Degrade.MeanDurationSec
		in.engine.After(dur, sim.PriorityState, "faults.restore", func() {
			in.degraded[pick] = false
			in.setCapacity(pick, 1)
			in.trace(telemetry.PhaseDegrade, "", w.Name(), "restored")
		})
	}
	in.scheduleDegrade(rng)
}

// runScripted executes one scripted fault.
func (in *Injector) runScripted(s ScriptedFault) {
	w := in.m.Workers()
	switch s.Kind {
	case KindCrash:
		if !w[s.Worker].Failed() {
			w[s.Worker].Fail()
		}
	case KindRepair:
		if w[s.Worker].Failed() {
			w[s.Worker].Repair()
		}
	case KindKill:
		_ = in.m.FailContainer(s.Job)
	case KindDegrade:
		in.degraded[s.Worker] = s.Factor < 1
		in.setCapacity(s.Worker, s.Factor)
		if s.Factor < 1 {
			in.m.Availability().Degradations++
			in.trace(telemetry.PhaseDegrade, "", w[s.Worker].Name(),
				"factor "+strconv.FormatFloat(s.Factor, 'g', -1, 64))
		} else {
			in.trace(telemetry.PhaseDegrade, "", w[s.Worker].Name(), "restored")
		}
	}
}

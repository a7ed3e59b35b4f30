// Package faults is the seeded chaos engine: deterministic MTBF/MTTR
// worker churn, transient single-container kills, and degraded-node
// episodes, injected into a cluster.Manager over the simulation clock.
//
// Determinism is the design constraint. Every injected event is a
// cluster-level (lane 0) event, so in a sharded simulation it bounds the
// conservative epochs exactly like manager events do; every stochastic
// stream draws from its own sub-seeded *rand.Rand consumed in serial
// event order, following the workload generator's discipline (a plan plus
// a seed is a pure function — the same fault trace at any -parallel width
// or -shard-sim count). Victim selection for kills walks workers in
// declaration order and containers in creation order, both deterministic.
package faults

import (
	"fmt"
	"math"
)

// Churn is a per-worker crash/repair renewal process: every worker
// draws exponential up-times (mean MTBFSec) and repair times (mean
// MTTRSec) from its own sub-seeded stream, crashing and auto-repairing in
// a chain for the whole run (or until Plan.UntilSec).
type Churn struct {
	// MTBFSec is the mean up-time between crashes of one worker.
	MTBFSec float64
	// MTTRSec is the mean time a crashed worker stays down.
	MTTRSec float64
}

// Kills is a cluster-wide transient-container-failure process: at
// exponential intervals one running container, chosen uniformly across
// the live cluster, is killed in place (Manager.FailContainer) — the
// OOM-kill / crashing-process fault, distinct from losing the node.
type Kills struct {
	// MeanIntervalSec is the mean time between kill attempts. An attempt
	// with no running container (or a victim that raced an exit) is a
	// no-op; the chain continues either way.
	MeanIntervalSec float64
}

// Degrade is the degraded-node process: at exponential intervals one
// worker, drawn uniformly, drops to half its nominal capacity for an
// exponential episode, then recovers. Containers on a degraded node run
// slower, so growth efficiency sags — stress the paper's controller
// never saw. A worker already degraded (or down) when picked is skipped.
type Degrade struct {
	// MeanIntervalSec is the mean time between degradation episodes.
	MeanIntervalSec float64
	// MeanDurationSec is the mean episode length.
	MeanDurationSec float64
}

// degradeFactor is the capacity multiplier of a Degrade episode: the
// node runs at half its nominal capacity.
const degradeFactor = 0.5

// Kind names one scripted fault action.
type Kind string

const (
	// KindCrash fails the worker (no-op if already down).
	KindCrash Kind = "crash"
	// KindRepair repairs the worker (no-op if healthy).
	KindRepair Kind = "repair"
	// KindKill kills the named job's container in place.
	KindKill Kind = "kill"
	// KindDegrade sets the worker's capacity factor (1 restores nominal).
	KindDegrade Kind = "degrade"
)

// ScriptedFault is one deterministic, clock-scheduled fault — the unit
// tests' precision tool (crash the source of an in-flight migration two
// seconds after its freeze), and an escape hatch for hand-built drills.
type ScriptedFault struct {
	// At is the injection time in virtual seconds.
	At float64
	// Kind selects the action.
	Kind Kind
	// Worker is the target worker index (crash/repair/degrade).
	Worker int
	// Job is the victim job name (kill).
	Job string
	// Factor is the capacity multiplier (degrade); 1 restores nominal.
	Factor float64
}

// Plan is a complete chaos-day description: any combination of the three
// stochastic processes plus a deterministic script, bounded by UntilSec.
// A Plan and a seed fully determine the fault trace.
type Plan struct {
	Churn   *Churn
	Kills   *Kills
	Degrade *Degrade
	Script  []ScriptedFault
	// UntilSec stops *initiating* new faults after this virtual time —
	// pending repairs and degradation recoveries still complete, so the
	// cluster always heals and the run can finish. 0 means unbounded.
	UntilSec float64
}

// Validate rejects out-of-domain plans against a cluster of the given
// worker count, with a named field.
func (p Plan) Validate(workers int) error {
	if workers <= 0 {
		return fmt.Errorf("faults: plan needs a positive worker count, got %d", workers)
	}
	pos := func(field string, v float64) error {
		if math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
			return fmt.Errorf("faults: %s %g must be a positive finite number", field, v)
		}
		return nil
	}
	if c := p.Churn; c != nil {
		if err := pos("churn MTBFSec", c.MTBFSec); err != nil {
			return err
		}
		if err := pos("churn MTTRSec", c.MTTRSec); err != nil {
			return err
		}
	}
	if k := p.Kills; k != nil {
		if err := pos("kills MeanIntervalSec", k.MeanIntervalSec); err != nil {
			return err
		}
	}
	if d := p.Degrade; d != nil {
		if err := pos("degrade MeanIntervalSec", d.MeanIntervalSec); err != nil {
			return err
		}
		if err := pos("degrade MeanDurationSec", d.MeanDurationSec); err != nil {
			return err
		}
	}
	for i, s := range p.Script {
		if math.IsNaN(s.At) || math.IsInf(s.At, 0) || s.At < 0 {
			return fmt.Errorf("faults: script[%d] at %g must be finite and non-negative", i, s.At)
		}
		switch s.Kind {
		case KindCrash, KindRepair:
			if s.Worker < 0 || s.Worker >= workers {
				return fmt.Errorf("faults: script[%d] worker index %d out of range", i, s.Worker)
			}
		case KindKill:
			if s.Job == "" {
				return fmt.Errorf("faults: script[%d] kill without a job name", i)
			}
		case KindDegrade:
			if s.Worker < 0 || s.Worker >= workers {
				return fmt.Errorf("faults: script[%d] worker index %d out of range", i, s.Worker)
			}
			if math.IsNaN(s.Factor) || s.Factor <= 0 || s.Factor > 1 {
				return fmt.Errorf("faults: script[%d] factor %g outside (0, 1]", i, s.Factor)
			}
		default:
			return fmt.Errorf("faults: script[%d] unknown kind %q", i, s.Kind)
		}
	}
	if math.IsNaN(p.UntilSec) || math.IsInf(p.UntilSec, 0) || p.UntilSec < 0 {
		return fmt.Errorf("faults: UntilSec %g must be finite and non-negative", p.UntilSec)
	}
	return nil
}

// Empty reports whether the plan injects nothing.
func (p Plan) Empty() bool {
	return p.Churn == nil && p.Kills == nil && p.Degrade == nil && len(p.Script) == 0
}

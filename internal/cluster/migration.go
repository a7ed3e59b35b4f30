package cluster

import (
	"fmt"

	"repro/internal/runtime"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// MigrationCost models the latency of a live container migration charged
// on the sim clock: a fixed freeze cost (quiesce + checkpoint write), a
// transfer proportional to the memory image, and a fixed thaw cost
// (restore + warm-up). The job makes no training progress while in
// flight — that lost time is the price the rebalancer's heuristics must
// beat.
type MigrationCost struct {
	// FreezeSec is the fixed cost of quiescing and checkpointing.
	FreezeSec float64
	// ThawSec is the fixed cost of restoring on the destination.
	ThawSec float64
	// BytesPerSec is the memory-image transfer bandwidth; 0 means the
	// transfer is not modelled (instant copy).
	BytesPerSec float64
}

// DefaultMigrationCost is calibrated for the testbed's jobs (0.3-1.4 GB
// resident sets): ~1s fixed overhead plus ~1s/GB of transfer, so a
// typical move costs 2-2.5s against job durations of 28-260s.
func DefaultMigrationCost() MigrationCost {
	return MigrationCost{FreezeSec: 0.5, ThawSec: 0.5, BytesPerSec: 1 << 30}
}

// Delay returns the end-to-end migration latency for a memory image of
// the given size.
func (c MigrationCost) Delay(memoryBytes float64) float64 {
	d := c.FreezeSec + c.ThawSec
	if c.BytesPerSec > 0 && memoryBytes > 0 {
		d += memoryBytes / c.BytesPerSec
	}
	return d
}

// Validate rejects malformed cost models with a named field: every
// component must be a finite non-negative number.
func (c MigrationCost) Validate() error {
	return checkFinite("migration cost", []namedValue{
		{"FreezeSec", c.FreezeSec},
		{"ThawSec", c.ThawSec},
		{"BytesPerSec", c.BytesPerSec},
	})
}

// MigrationSpec describes one migration for Manager.Migrate.
type MigrationSpec struct {
	// Job is the job label to move. It must currently be placed on a
	// worker (not queued, not already in flight).
	Job string
	// Dst is the worker to restore onto. Nil re-places through the
	// manager's placement function at thaw time — the drain path, where
	// the point is "anywhere but here".
	Dst *Worker
	// Cost is the freeze/transfer/thaw model (zero value = free move).
	Cost MigrationCost
}

// Migrate checkpoints a running job off its current worker and restores
// it elsewhere after the cost model's delay, all with exactly-once
// accounting:
//
//   - while in flight the job is placed nowhere — a failure of the source
//     worker does not reschedule it (its state already left the node),
//     and a failure of the destination falls back to the placement
//     function at thaw time;
//   - the thaw goes through the same OnPlace notifications as a launch,
//     so metrics re-bind the job to its new container;
//   - if no worker can host the job at thaw time it joins the admission
//     queue with its checkpointed progress, exactly like a recovered job.
//
// Migrate returns an error (and changes nothing) if the job is not
// currently running on a worker, the destination is the source, or the
// cost model is malformed.
func (m *Manager) Migrate(spec MigrationSpec) error {
	j := m.jobs[spec.Job]
	if j == nil {
		return fmt.Errorf("cluster: migrate unknown job %q", spec.Job)
	}
	return m.migrate(j, spec)
}

// migrate is Migrate past the record lookup.
func (m *Manager) migrate(j *job, spec MigrationSpec) error {
	if err := spec.Cost.Validate(); err != nil {
		return err
	}
	src := j.worker
	if src == nil {
		return fmt.Errorf("cluster: job %q is not placed on any worker (queued or in flight)", j.name)
	}
	if spec.Dst == src {
		return fmt.Errorf("cluster: job %q is already on worker %s", j.name, src.Name())
	}
	if spec.Dst != nil && spec.Dst.Failed() {
		return fmt.Errorf("cluster: migration destination %s has failed", spec.Dst.Name())
	}
	c, err := src.Lookup(j.name)
	if err != nil {
		return fmt.Errorf("cluster: migrate %q: %w", j.name, err)
	}
	if c.State != runtime.Running || c.Done {
		return fmt.Errorf("cluster: job %q is not running (state %s)", j.name, c.State)
	}
	cp, err := src.Checkpoint(c.ID)
	if err != nil {
		return fmt.Errorf("cluster: migrate %q: %w", j.name, err)
	}

	if m.tracer != nil {
		dstName := "any"
		if spec.Dst != nil {
			dstName = spec.Dst.Name()
		}
		m.trace(telemetry.PhaseMigrate, j.name, src.Name(), "freeze dst="+dstName)
	}
	j.worker = nil
	m.inflight++
	dst := spec.Dst
	m.engine.After(spec.Cost.Delay(cp.MemoryBytes), sim.PriorityState,
		"manager.thaw."+j.name, func() {
			m.inflight--
			m.thaw(j, dst, cp)
		})
	return nil
}

// thaw lands an in-flight checkpoint: on the requested destination if it
// can still host the job, otherwise wherever the placement function says,
// otherwise the admission queue (with progress preserved).
func (m *Manager) thaw(j *job, dst *Worker, cp *runtime.Checkpoint) {
	m.migrated++
	if dst == nil || !dst.CanHost(j.profile) {
		dst = m.placement(m.workers, j.profile)
	}
	if dst == nil {
		// Nowhere to land right now. The live checkpoint degrades to a
		// work-offset resubmission — lossless for the manager's jobs,
		// whose whole state is delivered work — and the admission queue
		// takes over.
		j.resumeWork = cp.Work
		m.queue = append(m.queue, j)
		m.trace(telemetry.PhaseMigrate, j.name, "", "thaw queued (no hostable worker)")
		return
	}
	c, err := dst.Restore(cp)
	if err != nil {
		panic(fmt.Sprintf("cluster: thaw %s on %s: %v", j.name, dst.Name(), err))
	}
	m.trace(telemetry.PhaseMigrate, j.name, dst.Name(), "thaw "+c.ID)
	j.worker = dst
	for _, fn := range m.onMigrate {
		fn(j.name, dst, c)
	}
}

// Drain cordons a worker and migrates every running job off it — the
// rolling-maintenance primitive. Destinations are chosen by the
// placement function at thaw time; jobs that fit nowhere queue at the
// manager with their progress intact. Returns how many migrations were
// started. The caller Uncordons (or Fails/Repairs) the worker when
// maintenance is over.
func (m *Manager) Drain(w *Worker, cost MigrationCost) int {
	w.Cordon()
	n := 0
	for _, c := range w.PS(false) {
		j := m.jobs[c.Name]
		if j == nil || j.worker != w || c.Done {
			continue
		}
		if err := m.migrate(j, MigrationSpec{Job: j.name, Cost: cost}); err != nil {
			panic(fmt.Sprintf("cluster: drain %s: %v", w.Name(), err))
		}
		n++
	}
	return n
}

// Migrated returns how many migrations have completed (thawed into a
// running or queued job).
func (m *Manager) Migrated() int { return m.migrated }

// InFlight returns how many jobs are currently mid-migration.
func (m *Manager) InFlight() int { return m.inflight }

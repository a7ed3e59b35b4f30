package cluster

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/runtime"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// RecoveryPolicy configures how the manager recovers lost work: periodic
// priced checkpoints, a retry budget with exponential backoff on restart
// placement, flap detection that cordons repeatedly crashing workers, and
// admission shedding below a surviving-capacity watermark. The zero value
// of every knob means "off", so a policy enables exactly the mechanisms
// it names, and the zero policy — what a manager starts with — is the
// paper's behaviour: a lost job restarts from scratch at once.
type RecoveryPolicy struct {
	// CheckpointEverySec, when positive, snapshots every long-running job
	// periodically: each scan freezes jobs that accumulated a quarter of
	// the period's worth of fresh cpu-work since their last snapshot,
	// charges CheckpointCost on the sim clock (the job makes no
	// progress while frozen), and restores them in place. A later crash
	// resumes from the last snapshot instead of zero.
	CheckpointEverySec float64
	// CheckpointCost prices one snapshot (freeze + state write + thaw).
	// The zero value means DefaultMigrationCost — snapshots are charged
	// like migrations unless the policy says local storage is cheaper.
	CheckpointCost MigrationCost
	// RetryBudget caps failure-driven restarts per job; the budget
	// exhausted, the job is abandoned (PhaseGiveUp, OnAbandon). 0 retries
	// forever.
	RetryBudget int
	// BackoffBaseSec delays the n-th restart of a job by
	// min(base·2^(n−1), cap) virtual seconds — breathing room so a
	// flapping worker does not churn the same placement. 0 reschedules
	// at the same instant.
	BackoffBaseSec float64
	// BackoffCapSec bounds the exponential backoff (0 = uncapped).
	BackoffCapSec float64
	// FlapThreshold cordons a worker that crashes this many times within
	// FlapWindowSec (0 disables flap detection).
	FlapThreshold int
	// FlapWindowSec is the sliding crash-count window. Required when
	// FlapThreshold is set.
	FlapWindowSec float64
	// FlapCooldownSec reopens a flap-cordoned worker after this long
	// (0 = it stays cordoned until someone uncordons it).
	FlapCooldownSec float64
	// ShedBelowFrac defers fresh admissions straight into the queue (the
	// 429 path) while live, uncordoned capacity is below this fraction of
	// total capacity — the cluster stops accepting work it would only
	// thrash on. 0 disables shedding.
	ShedBelowFrac float64
}

// Validate rejects out-of-domain recovery policies with a named field.
func (p RecoveryPolicy) Validate() error {
	if err := checkFinite("recovery policy", []namedValue{
		{"CheckpointEverySec", p.CheckpointEverySec},
		{"BackoffBaseSec", p.BackoffBaseSec},
		{"BackoffCapSec", p.BackoffCapSec},
		{"FlapWindowSec", p.FlapWindowSec},
		{"FlapCooldownSec", p.FlapCooldownSec},
	}); err != nil {
		return err
	}
	if err := p.CheckpointCost.Validate(); err != nil {
		return err
	}
	if p.RetryBudget < 0 {
		return fmt.Errorf("cluster: recovery policy RetryBudget %d must be non-negative", p.RetryBudget)
	}
	if p.FlapThreshold < 0 {
		return fmt.Errorf("cluster: recovery policy FlapThreshold %d must be non-negative", p.FlapThreshold)
	}
	if p.FlapThreshold > 0 && p.FlapWindowSec == 0 {
		return fmt.Errorf("cluster: recovery policy FlapThreshold %d needs a FlapWindowSec", p.FlapThreshold)
	}
	if math.IsNaN(p.ShedBelowFrac) || p.ShedBelowFrac < 0 || p.ShedBelowFrac > 1 {
		return fmt.Errorf("cluster: recovery policy ShedBelowFrac %g outside [0, 1]", p.ShedBelowFrac)
	}
	return nil
}

// namedValue is one float field checkFinite inspects.
type namedValue struct {
	name string
	v    float64
}

// checkFinite rejects the first NaN, infinite or negative field of what,
// naming it.
func checkFinite(what string, fields []namedValue) error {
	for _, f := range fields {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) || f.v < 0 {
			return fmt.Errorf("cluster: %s %s %g must be a finite non-negative number", what, f.name, f.v)
		}
	}
	return nil
}

// withDefaults fills derived defaults after validation.
func (p RecoveryPolicy) withDefaults() RecoveryPolicy {
	if p.CheckpointCost == (MigrationCost{}) {
		p.CheckpointCost = DefaultMigrationCost()
	}
	return p
}

// backoff returns the delay before restart attempt n (1-based).
func (p RecoveryPolicy) backoff(n int) float64 {
	if p.BackoffBaseSec == 0 {
		return 0
	}
	d := p.BackoffBaseSec * math.Pow(2, float64(n-1))
	if p.BackoffCapSec > 0 && d > p.BackoffCapSec {
		d = p.BackoffCapSec
	}
	return d
}

// checkpointSkipFrac: a job this close to done is never frozen — the
// snapshot's stall would cost more than the work it could ever save.
const checkpointSkipFrac = 0.9

// EnableSelfHealing installs a recovery policy on the manager. Call once,
// before the run starts; it panics on an invalid policy, like the other
// assembly-time setters. Periodic checkpointing (if enabled) starts one
// scan interval into the run.
func (m *Manager) EnableSelfHealing(p RecoveryPolicy) {
	if err := p.Validate(); err != nil {
		panic(err.Error())
	}
	if m.recovery != (RecoveryPolicy{}) {
		panic("cluster: self-healing already enabled")
	}
	// withDefaults leaves no policy at the zero value, so the guard above
	// trips on any second call.
	p = p.withDefaults()
	m.recovery = p
	if p.CheckpointEverySec > 0 {
		m.engine.After(p.CheckpointEverySec, sim.PriorityState, "manager.ckpt-scan", m.checkpointScan)
	}
}

// Availability returns the manager's fault/recovery ledger. Always
// non-nil; Finalize it at the end of the run before reading the report
// accessors.
func (m *Manager) Availability() *Availability { return m.avail }

// OnRestore subscribes to checkpoint restores: a job resuming from a
// periodic snapshot with progress intact. Distinct from OnPlace (fresh
// container, possibly lost progress) and OnMigrate (lossless move to
// another worker) so metrics can classify all three rebinds.
func (m *Manager) OnRestore(fn func(jobName string, w *Worker, c runtime.Container)) {
	m.onRestore = append(m.onRestore, fn)
}

// OnAbandon subscribes to jobs given up after exhausting their retry
// budget. The runner counts abandons toward run termination — an
// abandoned job will never exit.
func (m *Manager) OnAbandon(fn func(jobName string)) {
	m.onAbandon = append(m.onAbandon, fn)
}

// Abandoned returns how many jobs were given up after exhausting their
// retry budget.
func (m *Manager) Abandoned() int { return m.avail.Abandoned }

// checkpointScan freezes every job that earned a fresh snapshot and
// schedules its priced in-place restore, then chains the next scan. Jobs
// are visited in name order so the event sequence is deterministic.
func (m *Manager) checkpointScan() {
	p := m.recovery
	placed := make([]*job, 0, len(m.jobs))
	for _, j := range m.jobs {
		if j.worker != nil {
			placed = append(placed, j)
		}
	}
	slices.SortFunc(placed, byName)
	for _, j := range placed {
		w := j.worker
		if w == nil || w.Failed() {
			continue
		}
		c, err := w.Lookup(j.name)
		if err != nil || c.State != runtime.Running || c.Done {
			continue
		}
		if c.Work-j.snapshot < p.CheckpointEverySec/4 {
			// Not enough fresh CPU work (a quarter of the period's worth)
			// to pay for a snapshot: an idle or starved job is not
			// re-frozen for nothing.
			continue
		}
		if c.Work >= checkpointSkipFrac*j.profile.TotalWork {
			continue
		}
		m.freezeSnapshot(j, w, c.ID)
	}
	m.engine.After(p.CheckpointEverySec, sim.PriorityState, "manager.ckpt-scan", m.checkpointScan)
}

// freezeSnapshot checkpoints one running job and schedules its restore
// after the policy's cost. While frozen the job is placed nowhere and
// counts as in flight, exactly like a migration: a crash of its worker
// cannot lose it (its state already left the pool) and the rebalancer
// cannot double-move it.
func (m *Manager) freezeSnapshot(j *job, w *Worker, containerID string) {
	cp, err := w.Checkpoint(containerID)
	if err != nil {
		// The container raced an exit inside this event chain; nothing to
		// snapshot.
		return
	}
	m.avail.Checkpoints++
	j.snapshot = cp.Work
	j.worker = nil
	m.inflight++
	m.trace(telemetry.PhaseCheckpoint, j.name, w.Name(), "freeze")
	delay := m.recovery.CheckpointCost.Delay(cp.MemoryBytes)
	m.engine.After(delay, sim.PriorityState, "manager.ckpt-restore", func() {
		m.inflight--
		m.restoreSnapshot(j, w, cp)
	})
}

// restoreSnapshot lands a periodic snapshot back on its worker — or, if
// the worker crashed (or filled up) while the job was frozen, wherever
// the placement function says, or the admission queue with progress
// preserved. A cordon alone does not evict the job: it was already
// resident, and cordons only close *new* admissions.
func (m *Manager) restoreSnapshot(j *job, w *Worker, cp *runtime.Checkpoint) {
	if !w.fits(j.profile) {
		w = m.placement(m.workers, j.profile)
	}
	if w == nil {
		j.resumeWork = cp.Work
		m.queue = append(m.queue, j)
		m.trace(telemetry.PhaseCheckpoint, j.name, "", "restore queued (no hostable worker)")
		return
	}
	c, err := w.Restore(cp)
	if err != nil {
		panic(fmt.Sprintf("cluster: restore %s on %s: %v", j.name, w.Name(), err))
	}
	j.worker = w
	m.trace(telemetry.PhaseCheckpoint, j.name, w.Name(), "restore "+c.ID)
	m.avail.jobPlaced(j, float64(m.engine.Now()))
	for _, fn := range m.onRestore {
		fn(j.name, w, c)
	}
}

// FailContainer kills one job's running container in place — the
// transient single-container fault (OOM kill, crashing training process)
// internal/faults injects. The worker survives; the job re-enters
// through the same recovery path as a worker crash: snapshot resume,
// retry budget, backoff.
func (m *Manager) FailContainer(name string) error {
	j := m.jobs[name]
	if j == nil {
		return fmt.Errorf("cluster: kill unknown job %q", name)
	}
	w := j.worker
	if w == nil {
		return fmt.Errorf("cluster: kill %q: job is not placed on any worker", name)
	}
	c, err := w.Lookup(name)
	if err != nil {
		return fmt.Errorf("cluster: kill %q: %w", name, err)
	}
	if c.State != runtime.Running || c.Done {
		return fmt.Errorf("cluster: kill %q: container is not running", name)
	}
	if err := w.Stop(c.ID); err != nil {
		return fmt.Errorf("cluster: kill %q: %w", name, err)
	}
	// Stop settled the pool: re-read the husk for the work that died with
	// it, then free the name so a retry can land back on this very node.
	c, err = w.Lookup(name)
	if err != nil {
		panic(fmt.Sprintf("cluster: kill %s: husk vanished: %v", name, err))
	}
	_ = w.Remove(c.ID)
	m.avail.Kills++
	m.trace(telemetry.PhaseKill, name, w.Name(), "container killed")
	m.lose(j, float64(m.engine.Now()), c.Work)
	m.rescheduleLost(j)
	return nil
}

// rescheduleLost routes a lost placement through the recovery policy: the
// job is retried after its own backoff delay (none = the same instant, at
// listener priority), or abandoned once over its retry budget.
func (m *Manager) rescheduleLost(j *job) {
	p := m.recovery
	j.attempts++
	if p.RetryBudget > 0 && j.attempts > p.RetryBudget {
		m.abandon(j)
		return
	}
	delay := p.backoff(j.attempts)
	if delay <= 0 {
		m.engine.At(m.engine.Now(), sim.PriorityListener,
			"manager.reschedule."+j.name, func() { m.tryPlace(j) })
		return
	}
	m.engine.After(delay, sim.PriorityState,
		"manager.reschedule."+j.name, func() { m.tryPlace(j) })
}

// abandon gives up on a job permanently: its name stays reserved, its
// record stays unfinished (its MTTR interval never closes), and OnAbandon
// subscribers (the runner's termination counter) hear about it exactly
// once.
func (m *Manager) abandon(j *job) {
	m.trace(telemetry.PhaseGiveUp, j.name, "", "retry budget exhausted")
	m.avail.Abandoned++
	for _, fn := range m.onAbandon {
		fn(j.name)
	}
}

// noteFlap records one crash of w for flap detection and cordons the
// worker when it crossed the policy's threshold inside the sliding
// window. Crash history resets on cordon so the cooldown starts clean.
func (m *Manager) noteFlap(w *Worker, now float64) {
	p := m.recovery
	if p.FlapThreshold <= 0 {
		return
	}
	log := append(w.crashLog, now)
	cut := 0
	for cut < len(log) && log[cut] < now-p.FlapWindowSec {
		cut++
	}
	w.crashLog = log[cut:]
	if len(w.crashLog) < p.FlapThreshold || w.Cordoned() {
		return
	}
	w.Cordon()
	m.avail.Cordons++
	m.trace(telemetry.PhaseCordon, "", w.Name(), "flap threshold crossed")
	w.crashLog = nil
	if p.FlapCooldownSec > 0 {
		m.engine.After(p.FlapCooldownSec, sim.PriorityState,
			"manager.uncordon."+w.Name(), func() {
				w.Uncordon()
				m.trace(telemetry.PhaseCordon, "", w.Name(), "cooldown over; reopened")
				m.Kick()
			})
	}
}

// shouldShed reports whether fresh admissions are currently deferred:
// live, uncordoned capacity fell below the policy's watermark fraction.
func (m *Manager) shouldShed() bool {
	p := m.recovery
	if p.ShedBelowFrac <= 0 {
		return false
	}
	total, alive := 0.0, 0.0
	for _, w := range m.workers {
		c := w.Capacity()
		total += c
		if !w.Failed() && !w.Cordoned() {
			alive += c
		}
	}
	return total > 0 && alive < p.ShedBelowFrac*total
}

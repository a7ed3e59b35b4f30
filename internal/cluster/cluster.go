// Package cluster provides the manager/worker topology of Figure 2: a
// Manager accepts job submissions and places containers onto Workers; each
// Worker hosts a container pool behind the pluggable runtime.Migratable
// interface (the simulated Docker daemon in experiments) plus whatever
// resource-management policy is installed on it.
//
// As in the paper, all of FlowCon's machinery lives on the worker side —
// the manager only places jobs and never sees growth efficiency, keeping
// the scheduling overhead distributed across the cluster.
package cluster

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/dlmodel"
	"repro/internal/runtime"
	"repro/internal/sim"
	"repro/internal/simdocker"
	"repro/internal/telemetry"
)

// Default image references pre-pulled onto every worker, one per framework
// (the paper's community images).
const (
	ImagePyTorch    = "pytorch/pytorch:1.0"
	ImageTensorFlow = "tensorflow/tensorflow:1.13"
)

// ImageFor maps a model's framework to its container image reference. An
// unknown framework is an error, not a panic: profiles are a user
// extension point, and a typo in a custom profile should surface as a
// failed launch rather than tear down the whole simulation.
func ImageFor(fw dlmodel.Framework) (string, error) {
	switch fw {
	case dlmodel.PyTorch:
		return ImagePyTorch, nil
	case dlmodel.TensorFlow:
		return ImageTensorFlow, nil
	default:
		return "", fmt.Errorf("cluster: no image for unknown framework %q", fw)
	}
}

// DefaultMemoryBytes is each worker's physical memory, matching the
// paper's R320 testbed node (16 GB).
const DefaultMemoryBytes = 16 << 30

// Worker is one node in the cluster: a container runtime plus admission
// state (failure, cordon, container cap). It embeds the runtime it wraps,
// so it implements runtime.Migratable (and flowcon.Runtime, which a
// FlowCon controller or any baseline policy drives), its start and exit
// hooks are the runtime's own, and cluster-level policies treat a worker
// exactly like its backend.
type Worker struct {
	runtime.Migratable

	name string

	// maxContainers caps concurrent containers for admission control
	// (0 = unlimited).
	maxContainers int
	// failed marks a crashed worker: it hosts nothing until repaired.
	failed bool
	// cordoned marks a worker closed for new admissions (rolling
	// maintenance); running containers keep running until drained.
	cordoned bool

	failSubs   []func()
	repairSubs []func()

	// Recovery state the manager keeps per worker: recent crash times for
	// flap detection, and the open downtime interval while down.
	crashLog []float64
	down     downInterval
}

var _ runtime.Migratable = (*Worker)(nil)

// NewWorker wraps a container runtime as a cluster worker: one that can
// checkpoint and restore, which migration and self-healing need. Use
// NewSimWorker for the usual simulated backend.
func NewWorker(name string, rt runtime.Migratable) *Worker {
	return &Worker{Migratable: rt, name: name}
}

// NewSimWorker creates a worker backed by a fresh simulated Docker daemon
// with the given normalized CPU capacity, the testbed's 16 GB of memory,
// and the framework images pre-pulled. The daemon is returned alongside
// for simulation assembly (contention model, metrics attachment, typed
// container hooks); policy layers should stay on the Worker surface.
func NewSimWorker(name string, engine *sim.Engine, capacity float64) (*Worker, *simdocker.Daemon) {
	d := simdocker.NewDaemon(engine, capacity)
	d.SetIDPrefix(name)
	d.SetMemoryCapacity(DefaultMemoryBytes)
	d.Pull(simdocker.Image{Ref: ImagePyTorch, SizeBytes: 750 << 20})
	d.Pull(simdocker.Image{Ref: ImageTensorFlow, SizeBytes: 680 << 20})
	return NewWorker(name, simdocker.NewRuntime(d)), d
}

// Name returns the worker's name.
func (w *Worker) Name() string { return w.name }

// SetMaxContainers caps the number of concurrently running containers the
// worker admits (0 = unlimited).
func (w *Worker) SetMaxContainers(n int) {
	if n < 0 {
		panic("cluster: negative container cap")
	}
	w.maxContainers = n
}

// Failed reports whether the worker has crashed and not been repaired.
func (w *Worker) Failed() bool { return w.failed }

// OnFail subscribes to worker-failure notifications.
func (w *Worker) OnFail(fn func()) { w.failSubs = append(w.failSubs, fn) }

// Fail crashes the worker: every running container is stopped (training
// progress since the last checkpoint — or all of it, without
// checkpointing — is lost) and the worker stops admitting work until
// Repair. Exit notifications fire for
// each killed container, so policies and listeners observe the departures.
func (w *Worker) Fail() {
	if w.failed {
		return
	}
	w.failed = true
	for _, c := range w.PS(false) {
		// Stop cannot fail for a container PS(false) just returned.
		_ = w.Stop(c.ID)
	}
	for _, fn := range w.failSubs {
		fn()
	}
}

// OnRepair subscribes to worker-repair notifications (fired only on a
// real failed→online transition; repairing a healthy worker is a no-op
// for subscribers). The manager uses this to close downtime accounting
// and revive its admission queue.
func (w *Worker) OnRepair(fn func()) { w.repairSubs = append(w.repairSubs, fn) }

// Repair brings a failed worker back online with an empty pool: the
// exited husks the crash left behind are removed so their reserved names
// cannot collide with a job migrating (or being re-placed) back onto the
// repaired node.
func (w *Worker) Repair() {
	wasFailed := w.failed
	w.failed = false
	for _, c := range w.PS(true) {
		if c.State == runtime.Exited {
			// Remove cannot fail for an exited container PS just returned.
			_ = w.Remove(c.ID)
		}
	}
	if wasFailed {
		for _, fn := range w.repairSubs {
			fn()
		}
	}
}

// Cordon closes the worker for new admissions without touching its
// running containers — the first half of a rolling-maintenance drain.
func (w *Worker) Cordon() { w.cordoned = true }

// Uncordon reopens a cordoned worker for placements.
func (w *Worker) Uncordon() { w.cordoned = false }

// Cordoned reports whether the worker is closed for admissions.
func (w *Worker) Cordoned() bool { return w.cordoned }

// CanHost reports whether the worker can admit a job with the given
// profile right now: it is alive, not cordoned, below its container cap,
// and the job's resident memory fits the node without overcommit. The
// built-in placements consult it only for a would-be winner, so it must
// stay a pure read: no side effects, no caching across calls.
func (w *Worker) CanHost(p dlmodel.Profile) bool { return !w.cordoned && w.fits(p) }

// fits is CanHost minus the cordon check: the worker is alive, below its
// container cap, and has memory for the job. A frozen resident job
// returning to its own worker is not a new admission, so it asks this.
func (w *Worker) fits(p dlmodel.Profile) bool {
	if w.failed {
		return false
	}
	if w.maxContainers > 0 && w.RunningCount() >= w.maxContainers {
		return false
	}
	cap := w.MemoryCapacity()
	return !(cap > 0 && w.MemoryUsed()+p.MemoryBytes > cap)
}

// MemoryFree returns the unreserved node memory in bytes.
func (w *Worker) MemoryFree() float64 {
	return w.MemoryCapacity() - w.MemoryUsed()
}

// LaunchJob runs a DL job in a new container on this worker and returns
// its view. Name is the experiment-level job label (e.g. "Job-3"); the
// image is derived from the job's framework.
func (w *Worker) LaunchJob(name string, job *dlmodel.Job) (runtime.Container, error) {
	img, err := ImageFor(job.Profile().Framework)
	if err != nil {
		return runtime.Container{}, err
	}
	return w.Launch(runtime.LaunchSpec{
		Image:    img,
		Name:     name,
		Model:    job.Profile().Key(),
		Workload: job,
	})
}

// Placement selects a worker able to host the given job, or nil to make
// the manager queue the job until capacity frees up. The built-in
// placements read each worker's ranking value once and consult CanHost
// only for a worker that would beat the best so far, so a worker the
// scan would not choose is never asked; CanHost must therefore stay free
// of side effects.
type Placement func(workers []*Worker, p dlmodel.Profile) *Worker

// LeastLoaded places on the hosting-capable worker with the fewest running
// containers, breaking ties by declaration order — the spread strategy.
// It reads RunningCount once per worker and asks CanHost only of a worker
// with strictly fewer containers than the best so far: on a remote
// backend a placement costs about one ping per worker.
func LeastLoaded(workers []*Worker, p dlmodel.Profile) *Worker {
	var best *Worker
	bestN := 0
	for _, w := range workers {
		n := w.RunningCount()
		if best != nil && n >= bestN {
			continue
		}
		if w.CanHost(p) {
			best, bestN = w, n
		}
	}
	return best
}

// BinPackMemory places on the hosting-capable worker with the least free
// memory that still fits the job — the consolidation strategy used by
// server-consolidation schedulers in the related work. Like LeastLoaded
// it reads MemoryFree once per worker and asks CanHost only of a worker
// that would win; ties go to declaration order, and a NaN free-memory
// reading on either side never displaces the best so far.
func BinPackMemory(workers []*Worker, p dlmodel.Profile) *Worker {
	var best *Worker
	bestFree := 0.0
	for _, w := range workers {
		free := w.MemoryFree()
		if best != nil && !(free < bestFree) {
			continue
		}
		if w.CanHost(p) {
			best, bestFree = w, free
		}
	}
	return best
}

// FirstFit places on the first hosting-capable worker in declaration
// order. It deliberately concentrates load on the lowest-index nodes and
// leaves the tail idle — the skewed, manager-never-revisits placement
// that builds the hotspots the GE-aware rebalancer exists to dissolve
// (the `hotspot` scenario pairs the two).
func FirstFit(workers []*Worker, p dlmodel.Profile) *Worker {
	for _, w := range workers {
		if w.CanHost(p) {
			return w
		}
	}
	return nil
}

// job is the manager's one record per submitted job, kept from SubmitNow
// to the end of the run. Every lifecycle step looks it up once in
// Manager.jobs and works through the pointer, so placement, recovery and
// migration state cannot disagree.
type job struct {
	name    string
	profile dlmodel.Profile
	// worker hosts the job's container: nil while queued, frozen in a
	// migration or snapshot, or waiting out a retry. A finished job keeps
	// its worker.
	worker *Worker
	// resumeWork is the CPU work the next launch restarts from (0 = from
	// scratch); snapshot is the work of the last priced periodic
	// checkpoint, the floor a crash restart resumes from.
	resumeWork, snapshot float64
	// attempts counts failure-driven restarts (the retry budget).
	attempts int
	// lostAt is when the job last lost its container; recovering marks the
	// MTTR interval open until the next placement.
	lostAt     float64
	recovering bool
}

// byName orders job records by name, for deterministic processing.
func byName(a, b *job) int { return strings.Compare(a.name, b.name) }

// Manager accepts user submissions and reconciles them onto workers,
// mirroring the manager role in Figure 2: it owns placement, an admission
// queue for jobs no worker can currently host, and rescheduling of jobs
// lost to worker failures.
type Manager struct {
	engine    *sim.Engine
	workers   []*Worker
	placement Placement
	// jobs holds every submitted job's record; a name stays reserved for
	// the whole run.
	jobs      map[string]*job
	queue     []*job
	onPlace   []func(jobName string, w *Worker, c runtime.Container)
	onMigrate []func(jobName string, w *Worker, c runtime.Container)

	// inflight counts jobs frozen mid-migration or mid-snapshot, not yet
	// thawed anywhere. Their worker is nil, so failure recovery and
	// migration see them as "not on any worker" — which is exactly true.
	inflight int
	// migrated counts completed migrations (checkpoints thawed back into
	// a running or queued job).
	migrated int

	// tracer, when set, receives one lifecycle span per admission step
	// (submit/queue/admit/place, plus migrate and fail). It is a pure
	// observer — never read back — and a nil tracer costs one branch.
	// Manager events run on the simulation's one engine, so
	// m.engine.Now() is the correct sim stamp at every hook site.
	tracer *telemetry.Tracer

	// Recovery state (see selfheal.go). recovery is the zero policy —
	// every mechanism off — until EnableSelfHealing installs another; the
	// per-job and per-worker recovery state is maintained under any
	// policy, so the availability ledger covers every run.
	recovery  RecoveryPolicy
	onRestore []func(jobName string, w *Worker, c runtime.Container)
	onAbandon []func(jobName string)
	avail     *Availability
}

// NewManager creates a manager over the given workers. A nil placement
// defaults to LeastLoaded. The manager subscribes to worker exits so
// queued jobs are admitted as capacity frees, and to worker failures so
// lost jobs are rescheduled (training restarts from scratch — the paper's
// jobs do not checkpoint).
func NewManager(engine *sim.Engine, workers []*Worker, placement Placement) *Manager {
	if len(workers) == 0 {
		panic("cluster: manager needs at least one worker")
	}
	if placement == nil {
		placement = LeastLoaded
	}
	m := &Manager{
		engine:    engine,
		workers:   workers,
		placement: placement,
		jobs:      make(map[string]*job),
		avail:     newAvailability(workers),
	}
	for _, w := range workers {
		w.OnExit(func(runtime.Container) {
			// Admission happens at listener priority so the pool state the
			// placement sees reflects the exit.
			if len(m.queue) > 0 {
				engine.At(engine.Now(), sim.PriorityListener, "manager.drain", m.drainQueue)
			}
		})
		w.OnFail(func() { m.handleFailure(w) })
		w.OnRepair(func() {
			m.avail.workerUp(w, float64(engine.Now()))
			m.trace(telemetry.PhaseRepair, "", w.Name(), "worker repaired")
			// Restored capacity must revive queued jobs even if no container
			// ever exits again.
			m.Kick()
		})
	}
	return m
}

// Workers returns the managed workers.
func (m *Manager) Workers() []*Worker { return m.workers }

// SetTracer attaches a lifecycle tracer to the manager (nil detaches).
// Attach before the run starts; spans cover submissions from then on.
func (m *Manager) SetTracer(t *telemetry.Tracer) { m.tracer = t }

// Tracer returns the attached lifecycle tracer, nil when tracing is off.
// Policies wired onto the manager (the rebalancer) use this to emit their
// own spans into the same ring.
func (m *Manager) Tracer() *telemetry.Tracer { return m.tracer }

// trace records one lifecycle span at the current virtual time. A nil
// tracer makes it a no-op.
func (m *Manager) trace(phase telemetry.Phase, job, worker, note string) {
	m.tracer.Record(float64(m.engine.Now()), phase, job, worker, note)
}

// OnPlace subscribes to job placements (metrics uses this to bind job
// labels to container IDs; re-placements after failures fire again).
func (m *Manager) OnPlace(fn func(jobName string, w *Worker, c runtime.Container)) {
	m.onPlace = append(m.onPlace, fn)
}

// OnMigrate subscribes to migration thaws: a job landing on its
// destination with progress intact. Distinct from OnPlace so observers
// can tell a lossless move from a launch or a lossy failure restart
// (a thaw that found no destination and fell back to the admission
// queue re-emerges through OnPlace like any queued job).
func (m *Manager) OnMigrate(fn func(jobName string, w *Worker, c runtime.Container)) {
	m.onMigrate = append(m.onMigrate, fn)
}

// Kick schedules an admission-queue drain at listener priority. Exits
// drive the queue automatically; call Kick when capacity returns through
// another path — an uncordon or a repair — or queued jobs would wait for
// an unrelated exit that may never come.
func (m *Manager) Kick() {
	if len(m.queue) > 0 {
		m.engine.At(m.engine.Now(), sim.PriorityListener, "manager.kick", m.drainQueue)
	}
}

// Submit schedules SubmitNow at virtual time `at` — the convenience form
// for callers that know their whole schedule upfront.
func (m *Manager) Submit(at sim.Time, name string, profile dlmodel.Profile) {
	m.engine.At(at, sim.PriorityState, "manager.place", func() { m.SubmitNow(name, profile) })
}

// SubmitNow admits a job at the current virtual time: it places the job,
// or queues it until a worker can host it. The job name must be unique
// per experiment. The experiment runner schedules each arrival as its own
// event and hands the job over the moment it fires, so the manager never
// holds a schedule.
func (m *Manager) SubmitNow(name string, profile dlmodel.Profile) {
	if _, dup := m.jobs[name]; dup {
		panic(fmt.Sprintf("cluster: duplicate job name %q", name))
	}
	j := &job{name: name, profile: profile}
	m.jobs[name] = j
	m.trace(telemetry.PhaseSubmit, name, "", "")
	m.admit(j)
}

// admit is the fresh-submission entry: when the self-healing policy's
// shed watermark trips (surviving capacity too low), the job is deferred
// straight into the queue — the 429 path — instead of being offered to
// the placement function. Requeues and recoveries skip this check: they
// were already admitted once.
func (m *Manager) admit(j *job) {
	if m.shouldShed() {
		m.avail.Shed++
		m.queue = append(m.queue, j)
		m.trace(telemetry.PhaseShed, j.name, "", "capacity below shed watermark")
		return
	}
	m.tryPlace(j)
}

// tryPlace launches the job now or queues it.
func (m *Manager) tryPlace(j *job) {
	w := m.placement(m.workers, j.profile)
	if w == nil {
		m.queue = append(m.queue, j)
		m.trace(telemetry.PhaseQueue, j.name, "", "no hostable worker")
		return
	}
	m.placeOn(w, j)
}

// drainQueue admits queued jobs in submission order, backfilling past any
// job that still fits nowhere (a small job may be admitted while a large
// one keeps waiting for memory).
func (m *Manager) drainQueue() {
	pending := m.queue
	m.queue = nil
	for _, j := range pending {
		w := m.placement(m.workers, j.profile)
		if w == nil {
			m.queue = append(m.queue, j)
			continue
		}
		m.placeOn(w, j)
	}
}

// placeOn launches a job on a specific worker and notifies subscribers.
func (m *Manager) placeOn(w *Worker, j *job) {
	m.trace(telemetry.PhaseAdmit, j.name, w.Name(), "")
	dljob := dlmodel.NewJobFromCheckpoint(j.name, j.profile, j.resumeWork)
	c, err := w.LaunchJob(j.name, dljob)
	if err != nil {
		panic(fmt.Sprintf("cluster: launch %s: %v", j.name, err))
	}
	m.trace(telemetry.PhasePlace, j.name, w.Name(), c.ID)
	j.worker = w
	m.avail.jobPlaced(j, float64(m.engine.Now()))
	for _, fn := range m.onPlace {
		fn(j.name, w, c)
	}
}

// handleFailure reschedules every job that was running on the failed
// worker. The containers were already stopped (and settled) by
// Worker.Fail; each job resumes from its last periodic snapshot, or from
// scratch without one, routed through the recovery policy's retry budget
// and backoff. Jobs frozen mid-checkpoint or mid-migration are placed
// nowhere and survive untouched: their state already left the node.
func (m *Manager) handleFailure(failed *Worker) {
	now := float64(m.engine.Now())
	m.avail.workerDown(failed, now)
	m.trace(telemetry.PhaseCrash, "", failed.Name(), "worker down")
	var lost []*job
	for _, j := range m.jobs {
		if j.worker != failed {
			continue
		}
		// Only reschedule jobs whose container did not finish. A failed
		// lookup means a finished job whose husk a previous Repair cleaned
		// (a finished job keeps its worker). Fail stops every live container
		// *before* notifying, so a genuinely lost job still has its husk.
		if c, err := failed.Lookup(j.name); err == nil && !c.Done {
			lost = append(lost, j)
		}
	}
	// Deterministic retry order.
	slices.SortFunc(lost, byName)
	for _, j := range lost {
		// The husk holds the work that died with it.
		c, _ := failed.Lookup(j.name)
		m.lose(j, now, c.Work)
		m.trace(telemetry.PhaseFail, j.name, failed.Name(), "worker failed; rescheduling")
	}
	for _, j := range lost {
		m.rescheduleLost(j)
	}
	m.noteFlap(failed, now)
}

// lose takes a job off its worker after its container died holding
// workAtLoss: the next launch resumes from the last snapshot, and the
// ledger opens the job's MTTR interval.
func (m *Manager) lose(j *job, now, workAtLoss float64) {
	j.worker = nil
	j.resumeWork = j.snapshot
	m.avail.jobLost(j, now, workAtLoss)
}

// Submitted returns how many jobs have been submitted to the manager.
func (m *Manager) Submitted() int { return len(m.jobs) }

// Queued returns how many jobs are waiting for capacity.
func (m *Manager) Queued() int { return len(m.queue) }

// Requeued returns how many job placements were lost to worker failures
// or container kills and rescheduled (the ledger classifies each loss).
func (m *Manager) Requeued() int {
	return m.avail.RestartsFromCheckpoint + m.avail.RestartsFromScratch
}

// WorkerOf returns the worker a job was placed on (nil before placement).
func (m *Manager) WorkerOf(name string) *Worker {
	if j := m.jobs[name]; j != nil {
		return j.worker
	}
	return nil
}

// ProfileOf returns the profile a job was submitted with.
func (m *Manager) ProfileOf(name string) (dlmodel.Profile, bool) {
	if j := m.jobs[name]; j != nil {
		return j.profile, true
	}
	return dlmodel.Profile{}, false
}

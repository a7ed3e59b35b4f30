// Package experiment assembles full evaluation runs: engine + workers +
// manager + policy + metrics, one function per figure/table of the paper.
// Each runner returns structured results that the CLI renders as the
// paper-shaped tables and the benchmark harness asserts against.
package experiment

import (
	"cmp"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync/atomic"

	"repro/internal/cluster"
	"repro/internal/dlmodel"
	"repro/internal/faults"
	"repro/internal/flowcon"
	"repro/internal/metrics"
	"repro/internal/migrate"
	rt "repro/internal/runtime"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/simdocker"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// Spec describes one simulation run: everything that shapes it is plain
// data here, down to the faults, recovery, drains and rebalancer layered
// on the paper's per-worker controller. A registered Scenario expands
// into one Spec per seed (Scenario.Spec), and RunScenarios applies a
// caller's edit to each expanded Spec — how flowcon-sim's run-shaping
// flags reach a run.
type Spec struct {
	// Name labels the run in reports.
	Name string
	// NewPolicy constructs the per-worker resource-management policy; it
	// receives the run's tracer (the metrics collector) for policies that
	// record growth efficiency. Required.
	NewPolicy func(tr flowcon.Tracer) sched.Policy
	// Submissions is the materialized job arrival schedule: a slice many
	// specs can share (grids do) and run concurrently — the runner never
	// writes to it, and admits it in arrival order whatever order it is
	// listed in. Exactly one of Submissions and Arrivals must be set.
	Submissions []workload.Submission
	// Arrivals is the lazy input form of the same schedule: the runner
	// keeps exactly one arrival event in flight, pulling the next
	// submission from the stream when it fires, so a run's memory is
	// bounded by simulation state rather than schedule length — what the
	// megacluster family needs. The stream must yield non-decreasing
	// arrival times (Generator.Stream and ReplayStream both guarantee it)
	// and is consumed exactly once: a Spec holding a stream is single-use.
	Arrivals workload.ArrivalStream
	// Workers is the node count (default 1, as in the paper's testbed).
	Workers int
	// Capacity is each node's normalized CPU capacity (default 1.0).
	Capacity float64
	// SamplePeriod is the CPU-usage sampling period in seconds
	// (default 2, comparable to docker stats cadence).
	SamplePeriod float64
	// Horizon is the safety cap on simulated time (default 50000s).
	Horizon float64
	// ContentionOverhead is the per-extra-container efficiency cost on
	// each node (see simdocker.Daemon.SetContentionOverhead). Zero means
	// the calibrated default (0.06); negative disables contention for an
	// ideal node.
	ContentionOverhead float64
	// Placement selects workers for jobs (nil = cluster.LeastLoaded;
	// cluster.BinPackMemory consolidates by memory).
	Placement cluster.Placement
	// MaxContainersPerWorker caps concurrent containers per node for
	// admission control (0 = unlimited); overflow jobs queue at the
	// manager.
	MaxContainersPerWorker int
	// MemoryBytesPerWorker overrides node memory (0 = the testbed's
	// 16 GB; negative disables memory modelling).
	MemoryBytesPerWorker float64
	// Faults attaches the fault engine to the run: seeded worker churn,
	// container kills and degraded nodes, plus Script for deterministic
	// drills (a worker crash at a fixed time is one ScriptedFault). Nil
	// injects nothing. The fault trace is a pure function of (Faults,
	// FaultSeed).
	Faults *faults.Plan
	// FaultSeed seeds the chaos engine's RNG streams; scenarios set it to
	// the workload seed so one seed fixes the whole run.
	FaultSeed int64
	// Recovery is the manager's recovery policy (periodic priced
	// checkpoints, retry budget + backoff, flap cordons, load shedding).
	// Nil is the zero policy, every mechanism off — the paper's behaviour:
	// a lost job restarts from scratch at once, as often as it takes.
	Recovery *cluster.RecoveryPolicy
	// Rebalance attaches the GE-aware migration rebalancer
	// (internal/migrate) with this configuration, alongside the
	// per-worker policies. Each run builds its own instance, since a
	// rebalancer holds per-run GE history. Nil attaches none.
	Rebalance *migrate.Config
	// Drains schedules rolling maintenance: at each entry's time the
	// worker is cordoned and its jobs live-migrate elsewhere.
	Drains []Drain
	// MigrationCost is the freeze/transfer/thaw model charged for drain
	// migrations (zero value = cluster.DefaultMigrationCost()).
	MigrationCost cluster.MigrationCost
	// SimShards controls intra-run parallelism: each worker gets its own
	// event lane and lanes execute concurrently inside conservative epochs
	// bounded by the next cluster-level event, merging deterministically so
	// output is byte-identical to the serial engine at any shard count.
	// 0 or 1 runs the classic serial engine; N>1 uses up to N goroutines;
	// negative means auto (GOMAXPROCS). Sharding needs at least 2 workers
	// to have anything to parallelize.
	SimShards int
	// TraceLevel selects metric retention (see metrics.Tier). The zero
	// value is the summary tier: O(jobs) collector memory, everything
	// ReportScenario needs, but no raw series. metrics.TierDense retains
	// full per-job series — required for figure regeneration and
	// limit-event traces — at O(jobs × makespan) memory. The tier never
	// changes simulation behavior, only what the collector keeps.
	TraceLevel metrics.Tier
	// Tracer, when set, receives one lifecycle span per job step
	// (submit → admit → place → run → migrate* → exit/fail) from the
	// manager and the runner's daemon hooks. Pure observer: attaching one
	// never changes simulation behavior or output (flowcon-sim's
	// -trace-out uses this). The tracer is echoed back on Result.Tracer
	// for export.
	Tracer *telemetry.Tracer
}

// Drain schedules rolling maintenance on one worker: cordon + migrate
// everything off at At, and (optionally) reopen for placements at
// UncordonAt.
type Drain struct {
	// Worker is the worker index (0-based, as in faults.ScriptedFault).
	Worker int
	// At is when the drain starts (virtual seconds).
	At float64
	// UncordonAt reopens the worker (0 = stays cordoned forever).
	UncordonAt float64
}

// DefaultContentionOverhead is the calibrated per-extra-container
// efficiency cost reproducing the paper testbed's co-location penalty.
const DefaultContentionOverhead = 0.06

// Result is the outcome of one run.
type Result struct {
	Name     string
	Policy   string
	Jobs     []metrics.JobRecord
	Makespan float64
	// Submitted is how many arrivals fired before the run ended (arrivals
	// the horizon cut off are not counted; Completed is false then). It can
	// exceed len(Jobs): jobs still waiting in the manager's admission queue
	// when the horizon hit were never placed and have no record.
	Submitted int
	// Completed is false if the horizon was hit before every submitted
	// job was placed and finished.
	Completed bool
	// Collector retains the full traces for figure rendering.
	Collector *metrics.Collector
	// AlgorithmRuns / LimitUpdates quantify scheduling overhead for
	// FlowCon policies (zero otherwise).
	AlgorithmRuns int
	LimitUpdates  int
	// Requeued counts job placements lost to injected worker failures
	// and rescheduled.
	Requeued int
	// Abandoned counts jobs given up after exhausting the recovery
	// policy's retry budget (0 without a budget).
	Abandoned int
	// Availability is the manager's finalized fault/recovery ledger —
	// downtime, restart provenance, wasted work, MTTR quantiles. Nil for
	// a run that saw no fault or self-healing activity, so healthy-run
	// reports stay unchanged.
	Availability *cluster.Availability
	// Migrated counts completed live migrations (rebalancer moves and
	// drains; zero when no rebalancer or drain ran).
	Migrated int
	// SimShards and SimBatches record how the run executed: the resolved
	// shard count (1 = serial engine) and how many parallel lane batches
	// ran (0 when the run stayed serial throughout). Diagnostics only —
	// simulation output is byte-identical regardless.
	SimShards  int
	SimBatches int
	// ShardProfile is the sharded executor's phase profile (epochs,
	// serial-degrade events/episodes, per-lane event counts, barrier-wait
	// and merge wall-time). Nil when the run used the serial engine. The
	// event counters are deterministic; the wall-time fields are host
	// measurements.
	ShardProfile *sim.ShardProfile
	// TraceLevel records the metric-retention tier the run used.
	TraceLevel metrics.Tier
	// Tracer is the lifecycle tracer the run recorded into (Spec.Tracer,
	// echoed back so sweep callers can export spans per run). Nil when
	// tracing was off.
	Tracer *telemetry.Tracer
}

// CompletionTimes returns job name → completion time (finish − start).
func (r *Result) CompletionTimes() map[string]float64 {
	out := make(map[string]float64, len(r.Jobs))
	for _, j := range r.Jobs {
		if j.Finished {
			out[j.Name] = j.CompletionTime()
		}
	}
	return out
}

// Job returns the record for a named job.
func (r *Result) Job(name string) (metrics.JobRecord, bool) {
	for _, j := range r.Jobs {
		if j.Name == name {
			return j, true
		}
	}
	return metrics.JobRecord{}, false
}

// arrivalStream returns the spec's schedule as the stream RunE admits
// from. A materialized schedule is replayed in arrival order (ties keep
// their listed order); sorting happens on a copy, and only when needed,
// because grids hand one Submissions slice to specs that run concurrently.
func (spec Spec) arrivalStream() workload.ArrivalStream {
	if spec.Arrivals != nil {
		return spec.Arrivals
	}
	subs := spec.Submissions
	byAt := func(a, b workload.Submission) int { return cmp.Compare(a.At, b.At) }
	if !slices.IsSortedFunc(subs, byAt) {
		subs = slices.Clone(subs)
		slices.SortStableFunc(subs, byAt)
	}
	return workload.SliceStream(subs)
}

// checkProfile reports why a submitted profile cannot run: it is
// malformed, or its framework has no image.
func checkProfile(p dlmodel.Profile) error {
	if err := p.Check(); err != nil {
		return err
	}
	_, err := cluster.ImageFor(p.Framework)
	return err
}

// checkShared validates the fields a Scenario shares with the Spec it
// expands into (Scenario.base): cluster shape, node settings, drains,
// migration cost, faults, recovery and the rebalancer. RunE and
// Scenario.validate both call it, so a registered scenario cannot hold a
// value every run of it would reject. kind and name label the definition
// in the error.
func (spec Spec) checkShared(kind, name string) error {
	if spec.Workers < 0 {
		return fmt.Errorf("experiment: %s %q has negative worker count %d", kind, name, spec.Workers)
	}
	if !(spec.Capacity >= 0) || math.IsInf(spec.Capacity, 0) {
		return fmt.Errorf("experiment: %s %q capacity %g must be finite and non-negative (0 = default)", kind, name, spec.Capacity)
	}
	if math.IsNaN(spec.ContentionOverhead) || math.IsInf(spec.ContentionOverhead, 0) {
		return fmt.Errorf("experiment: %s %q contention overhead %g must be finite (0 = default, negative = none)", kind, name, spec.ContentionOverhead)
	}
	if math.IsNaN(spec.MemoryBytesPerWorker) || math.IsInf(spec.MemoryBytesPerWorker, 0) {
		return fmt.Errorf("experiment: %s %q memory per worker %g must be finite (0 = default, negative = unmodelled)", kind, name, spec.MemoryBytesPerWorker)
	}
	if spec.MaxContainersPerWorker < 0 {
		return fmt.Errorf("experiment: %s %q has negative container cap %d (0 = unlimited)", kind, name, spec.MaxContainersPerWorker)
	}
	if math.IsNaN(spec.SamplePeriod) || math.IsInf(spec.SamplePeriod, 0) || spec.SamplePeriod < 0 {
		return fmt.Errorf("experiment: %s %q sample period %g must be finite and non-negative (0 = default)", kind, name, spec.SamplePeriod)
	}
	if math.IsNaN(spec.Horizon) || math.IsInf(spec.Horizon, 0) || spec.Horizon < 0 {
		return fmt.Errorf("experiment: %s %q horizon %g must be finite and non-negative (0 = default)", kind, name, spec.Horizon)
	}
	for _, d := range spec.Drains {
		if d.Worker < 0 || d.Worker >= max(spec.Workers, 1) {
			return fmt.Errorf("experiment: %s %q drain index %d out of range", kind, name, d.Worker)
		}
		if d.At < 0 || math.IsNaN(d.At) || math.IsInf(d.At, 0) {
			return fmt.Errorf("experiment: %s %q drain at %g invalid", kind, name, d.At)
		}
		if d.UncordonAt != 0 && (d.UncordonAt <= d.At || math.IsNaN(d.UncordonAt) || math.IsInf(d.UncordonAt, 0)) {
			return fmt.Errorf("experiment: %s %q uncordon at %g must follow drain at %g", kind, name, d.UncordonAt, d.At)
		}
	}
	if err := spec.MigrationCost.Validate(); err != nil {
		return fmt.Errorf("experiment: %s %q: %v", kind, name, err)
	}
	if spec.Faults != nil {
		if err := spec.Faults.Validate(max(spec.Workers, 1)); err != nil {
			return fmt.Errorf("experiment: %s %q: %v", kind, name, err)
		}
	}
	if spec.Recovery != nil {
		if err := spec.Recovery.Validate(); err != nil {
			return fmt.Errorf("experiment: %s %q: %v", kind, name, err)
		}
	}
	if spec.Rebalance != nil {
		if err := spec.Rebalance.Validate(); err != nil {
			return fmt.Errorf("experiment: %s %q: %v", kind, name, err)
		}
	}
	return nil
}

// Run executes the spec to completion (or horizon) and returns the result.
// It panics on an invalid spec; Sweep and other programmatic callers should
// prefer RunE, which reports the same conditions as errors.
func Run(spec Spec) *Result {
	res, err := RunE(spec)
	if err != nil {
		panic(err.Error())
	}
	return res
}

// RunE executes the spec to completion (or horizon) and returns the
// result. Unlike Run it rejects invalid specs — nil policy, empty
// submissions, a malformed job profile, a non-finite or out-of-range node
// setting, out-of-range fault or drain index, an invalid rebalancer
// config — with an error instead of a panic.
func RunE(spec Spec) (*Result, error) {
	if spec.NewPolicy == nil {
		return nil, fmt.Errorf("experiment: spec %q without policy", spec.Name)
	}
	if len(spec.Submissions) == 0 && spec.Arrivals == nil {
		return nil, fmt.Errorf("experiment: spec %q without submissions", spec.Name)
	}
	if len(spec.Submissions) > 0 && spec.Arrivals != nil {
		return nil, fmt.Errorf("experiment: spec %q sets both Submissions and Arrivals", spec.Name)
	}
	for _, s := range spec.Submissions {
		// A malformed profile or a framework with no image would otherwise
		// surface as a panic mid-run; custom profiles are user input, so
		// fail upfront (a lazy stream can only be checked as each arrival
		// fires).
		if err := checkProfile(s.Profile); err != nil {
			return nil, fmt.Errorf("experiment: spec %q job %q: %v", spec.Name, s.Name, err)
		}
	}
	if err := spec.checkShared("spec", spec.Name); err != nil {
		return nil, err
	}
	if spec.MigrationCost == (cluster.MigrationCost{}) {
		spec.MigrationCost = cluster.DefaultMigrationCost()
	}
	if spec.Workers == 0 {
		spec.Workers = 1
	}
	if spec.Capacity == 0 {
		spec.Capacity = 1.0
	}
	if spec.SamplePeriod == 0 {
		spec.SamplePeriod = 2.0
	}
	if spec.Horizon == 0 {
		spec.Horizon = 50000
	}
	switch {
	case spec.ContentionOverhead == 0:
		spec.ContentionOverhead = DefaultContentionOverhead
	case spec.ContentionOverhead < 0:
		spec.ContentionOverhead = 0
	}

	engine := sim.NewEngine()
	collector := metrics.NewCollectorTier(engine, spec.SamplePeriod, spec.TraceLevel)

	// With SimShards, each worker's events ride a private lane of the
	// sharded executor; cluster-level machinery (manager, faults, drains,
	// the rebalancer) stays on the engine itself (lane 0).
	shards := spec.SimShards
	if shards < 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	var sharded *sim.Sharded
	laneOf := func(i int) sim.Scheduler { return engine }
	if shards > 1 && spec.Workers > 1 {
		sharded = sim.NewSharded(engine, spec.Workers)
		sharded.Procs = shards
		laneOf = func(i int) sim.Scheduler { return sharded.Lane(i) }
	}

	workers := make([]*cluster.Worker, spec.Workers)
	daemons := make([]*simdocker.Daemon, spec.Workers)
	policies := make([]sched.Policy, spec.Workers)
	for i := range workers {
		w, d := cluster.NewSimWorker(fmt.Sprintf("worker-%d", i), laneOf(i), spec.Capacity)
		d.SetContentionOverhead(spec.ContentionOverhead)
		switch {
		case spec.MemoryBytesPerWorker > 0:
			d.SetMemoryCapacity(spec.MemoryBytesPerWorker)
		case spec.MemoryBytesPerWorker < 0:
			d.SetMemoryCapacity(0)
		}
		if spec.MaxContainersPerWorker > 0 {
			w.SetMaxContainers(spec.MaxContainersPerWorker)
		}
		workers[i] = w
		daemons[i] = d
		collector.AttachWorker(w.Name(), d)
		p := spec.NewPolicy(collector)
		p.Attach(laneOf(i), w)
		policies[i] = p
	}

	manager := cluster.NewManager(engine, workers, spec.Placement)
	manager.SetTracer(spec.Tracer)
	// bind tracks a job's new container (launch, migration thaw or
	// checkpoint restore) under its model key, then opens its run span: the
	// container is up and training (a nil tracer is a no-op).
	bind := func(track func(name, worker, model, id string, at float64)) func(string, *cluster.Worker, rt.Container) {
		return func(name string, w *cluster.Worker, c rt.Container) {
			p, _ := manager.ProfileOf(name)
			track(name, w.Name(), p.Key(), c.ID, c.StartedAt)
			spec.Tracer.Record(c.StartedAt, telemetry.PhaseRun, name, w.Name(), c.ID)
		}
	}
	manager.OnPlace(bind(collector.TrackJob))
	manager.OnMigrate(bind(collector.TrackJobMigrated))
	manager.OnRestore(bind(collector.TrackJobCheckpointed))
	if spec.Recovery != nil {
		manager.EnableSelfHealing(*spec.Recovery)
	}
	if spec.Faults != nil && !spec.Faults.Empty() {
		// Degraded-node mode scales a daemon's capacity under the runtime
		// interface; the callback runs inside lane-0 injector events, where
		// worker state is safe to touch (exactly like Worker.Fail).
		setCapacity := func(worker int, factor float64) {
			daemons[worker].SetCapacity(spec.Capacity * factor)
		}
		if _, err := faults.Attach(engine, manager, *spec.Faults, spec.FaultSeed, setCapacity); err != nil {
			return nil, fmt.Errorf("experiment: spec %q: %v", spec.Name, err)
		}
	}
	if spec.Rebalance != nil {
		migrate.New(*spec.Rebalance).AttachCluster(engine, manager)
	}
	for _, d := range spec.Drains {
		w := workers[d.Worker]
		cost := spec.MigrationCost
		engine.At(sim.Time(d.At), sim.PriorityState, "experiment.drain", func() {
			manager.Drain(w, cost)
		})
		if d.UncordonAt > 0 {
			engine.At(sim.Time(d.UncordonAt), sim.PriorityState,
				"experiment.uncordon."+w.Name(), func() {
					w.Uncordon()
					// Reopened capacity must revive queued jobs even if no
					// container ever exits again (e.g. everything thawed
					// into the queue while the whole cluster was cordoned).
					manager.Kick()
				})
		}
	}

	// Stop the engine the moment the last job completes; otherwise the
	// periodic samplers and executor ticks self-schedule forever. Exits
	// whose workload did not finish (failure kills) do not count. The
	// counters are atomic because in sharded mode exits land on concurrent
	// worker lanes. The schedule length is unknown until the arrival stream
	// drains, so termination is stream-exhausted + every admitted job
	// finished.
	var submitted atomic.Int64
	var exhausted atomic.Bool
	var finished atomic.Int64
	for i, d := range daemons {
		workerName := workers[i].Name()
		d.OnExit(func(c *simdocker.Container) {
			if !c.Workload().Done() {
				return
			}
			// The exit span is stamped with the container's own finish time:
			// exits retired synchronously by an executor tick inside a
			// sharded batch must not read the (stale there) engine clock.
			// Record is mutex-guarded and allocation-free, so concurrent
			// lanes can share the ring.
			spec.Tracer.Record(float64(c.FinishedAt()), telemetry.PhaseExit, c.Name(), workerName, c.ID())
			if finished.Add(1) == submitted.Load() && exhausted.Load() {
				engine.Stop()
			}
		})
	}
	// An abandoned job (retry budget exhausted) will never exit: it counts
	// toward termination here, or the run would idle to the horizon. Its
	// last container already exited un-Done, so the two paths never both
	// count one job.
	manager.OnAbandon(func(string) {
		if finished.Add(1) == submitted.Load() && exhausted.Load() {
			engine.Stop()
		}
	})

	// Admission: exactly one arrival event is in flight at a time.
	// Admitting submission i pulls i+1 from the stream and schedules its
	// arrival, so workload-layer memory stays O(1) in schedule length. The
	// pull-ahead also means exhaustion is always discovered at the last
	// real admission — before that job can have finished — which keeps the
	// stop predicate race-free. A stream that fails mid-run aborts the
	// run; RunE reports its error.
	arrivals := spec.arrivalStream()
	var streamErr error
	fail := func(err error) {
		streamErr = err
		engine.Stop()
	}
	var schedule func(sub workload.Submission)
	schedule = func(sub workload.Submission) {
		engine.At(sim.Time(sub.At), sim.PriorityState, "experiment.arrive", func() {
			if err := checkProfile(sub.Profile); err != nil {
				fail(fmt.Errorf("experiment: spec %q job %q: %v", spec.Name, sub.Name, err))
				return
			}
			submitted.Add(1)
			manager.SubmitNow(sub.Name, sub.Profile)
			next, ok := arrivals.Next()
			switch {
			case ok:
				// NaN compares false against everything, so test it
				// explicitly — it must not reach engine.At.
				if !(next.At >= sub.At) || math.IsInf(next.At, 0) {
					fail(fmt.Errorf("experiment: spec %q arrival stream went backwards: %q at %g after %q at %g",
						spec.Name, next.Name, next.At, sub.Name, sub.At))
					return
				}
				schedule(next)
			default:
				if err := arrivals.Err(); err != nil {
					fail(fmt.Errorf("experiment: spec %q arrival stream: %w", spec.Name, err))
					return
				}
				exhausted.Store(true)
			}
		})
	}
	first, ok := arrivals.Next()
	if !ok {
		if err := arrivals.Err(); err != nil {
			return nil, fmt.Errorf("experiment: spec %q arrival stream: %w", spec.Name, err)
		}
		return nil, fmt.Errorf("experiment: spec %q arrival stream is empty (streams are single-use)", spec.Name)
	}
	if first.At < 0 || math.IsNaN(first.At) || math.IsInf(first.At, 0) {
		return nil, fmt.Errorf("experiment: spec %q arrival stream starts at invalid time %g", spec.Name, first.At)
	}
	schedule(first)

	if sharded != nil {
		// Exits interact with the cluster exactly when the manager's
		// admission queue is non-empty (an exit schedules a same-instant
		// drain that may place a job on any worker); near termination the
		// executor also stays serial so the final exit stops the run at
		// the same event the serial engine would. While the arrival stream
		// is live the run cannot be near termination no matter how few
		// admitted jobs remain, so Remaining reports a count safely above
		// any SerialTail.
		sharded.ExitsReactive = func() bool { return manager.Queued() > 0 }
		sharded.Remaining = func() int {
			if !exhausted.Load() {
				return 1 << 30
			}
			return int(submitted.Load() - finished.Load())
		}
		sharded.Run(sim.Time(spec.Horizon))
	} else {
		engine.Run(sim.Time(spec.Horizon))
	}
	if streamErr != nil {
		return nil, streamErr
	}

	res := &Result{
		Name:       spec.Name,
		Policy:     policies[0].Name(),
		SimShards:  1,
		TraceLevel: spec.TraceLevel,
		Jobs:       collector.Jobs(),
		Makespan:   collector.Makespan(),
		Submitted:  manager.Submitted(),
		// Complete means the arrival schedule was fully admitted (a
		// schedule cut off by the horizon leaves exhausted false) and every
		// submitted job was placed and ran to completion.
		Completed: collector.AllFinished() && manager.Queued() == 0 &&
			manager.Submitted() == len(collector.Jobs()) && exhausted.Load(),
		Collector: collector,
		Requeued:  manager.Requeued(),
		Abandoned: manager.Abandoned(),
		Migrated:  manager.Migrated(),
	}
	avail := manager.Availability()
	avail.Finalize(float64(engine.Now()))
	if avail.Faulted() {
		res.Availability = avail
	}
	if sharded != nil {
		res.SimShards = shards
		res.SimBatches = sharded.Batches()
		prof := sharded.Profile()
		res.ShardProfile = &prof
	}
	res.Tracer = spec.Tracer
	for _, p := range policies {
		if fc, ok := p.(*sched.FlowCon); ok && fc.Controller() != nil {
			res.AlgorithmRuns += fc.Controller().Runs()
			res.LimitUpdates += fc.Controller().LimitUpdates()
		}
	}
	return res, nil
}

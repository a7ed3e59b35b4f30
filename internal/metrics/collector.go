package metrics

import (
	"fmt"
	"math"
	"sort"
	"unsafe"

	"repro/internal/flowcon"
	"repro/internal/runtime"
	"repro/internal/sim"
	"repro/internal/simdocker"
)

// PostExitSamples is the documented post-exit sampler horizon: an exited
// container contributes at most this many further CPU samples — the
// partial window covering the exit instant and the first all-zero window
// — before the sampler seals it, drops it from iteration and frees its
// differencing state. Every later sample would be identically zero, so
// the cap loses no information while keeping the dense tier from
// accumulating an O(makespan) zero tail per finished job.
const PostExitSamples = 2

// JobRecord is the lifecycle summary of one job.
type JobRecord struct {
	Name        string
	ContainerID string
	Worker      string
	Model       string
	StartedAt   float64
	FinishedAt  float64
	Finished    bool
	// Restarts counts re-placements after worker failures (training
	// progress was lost, checkpoint-recovery aside).
	Restarts int
	// Migrations counts lossless live-migration thaws (progress intact).
	Migrations int
	// Checkpoints counts periodic-snapshot restores by the self-healing
	// layer (progress intact, job stayed resident or re-placed lossless).
	Checkpoints int
}

// CompletionTime returns finish − start, the paper's "individual job
// completion time" (its fixed-schedule discussion measures MNIST-TF from
// its 80s launch).
func (r JobRecord) CompletionTime() float64 {
	return r.FinishedAt - r.StartedAt
}

// seriesKind indexes the five raw series a dense-tier job keeps.
type seriesKind int

const (
	kindCPU    seriesKind = iota // usage (fraction of node)
	kindEval                     // raw evaluation-function values
	kindLimit                    // configured soft limit
	kindGrowth                   // growth efficiency
	kindList                     // list membership (0=NL,1=WL,2=CL)
	numKinds
)

// kindNames are the archive keys of the series kinds.
var kindNames = [numKinds]string{"cpu", "eval", "limit", "growth", "list"}

// job is the collector's one record per tracked job: the lifecycle
// summary and the tier's trajectory store. Both indexes — jobs by name,
// byCID by container — lead here, so the sampling and tracing paths do
// one lookup and then follow pointers.
type job struct {
	JobRecord

	// dense holds the raw series; nil in TierSummary.
	dense *[numKinds]Series
	// growthC is the bounded growth trajectory behind GrowthAt; nil in
	// TierDense, which answers from the raw growth trace.
	growthC *CompactSeries
}

// Collector accumulates everything an experiment reports. It subscribes to
// worker daemons for job lifecycle and implements flowcon.Tracer to
// capture growth-efficiency traces.
//
// What it keeps is governed by the collector's Tier. TierSummary keeps the
// job records and one bounded CompactSeries of growth per job, so GrowthAt
// can answer the GE@fraction report columns: total memory is O(jobs),
// independent of makespan. It has no periodic tick. TierDense samples CPU
// usage and evaluation values every period — pure reads of the daemons —
// and retains every raw sample, and every Algorithm 1 run's growth, limit
// and list, in full Series: O(jobs × makespan). The raw-series accessors
// (CPUSeries etc.) and CPUSummary return nil outside that tier.
//
// A Collector is not safe for concurrent use. Points mutates the
// collector too: it compacts a chunked series.
type Collector struct {
	engine *sim.Engine
	period float64
	tier   Tier

	jobs  map[string]*job // by job name
	byCID map[string]*job // by the container the job is bound to

	// samplers holds one sampler per attached worker, in attach order, in
	// TierDense and none in TierSummary. tickFn is the bound tick method,
	// built once so rescheduling the metrics.sample event allocates only
	// the event.
	samplers []*sampler
	tickFn   func()

	algoRuns int
}

// NewCollector creates a summary-tier collector. The period is validated
// but unused in that tier. Use NewCollectorTier to opt into dense
// retention, sampled every period seconds.
func NewCollector(engine *sim.Engine, period float64) *Collector {
	return NewCollectorTier(engine, period, TierSummary)
}

// NewCollectorTier creates a collector with an explicit retention tier.
// The tier changes what is retained, never what the simulation does: the
// dense sampler only reads the daemons, and a read changes no state. The
// period must be finite and positive.
func NewCollectorTier(engine *sim.Engine, period float64, tier Tier) *Collector {
	if !(period > 0) || math.IsInf(period, 1) {
		panic(fmt.Sprintf("metrics: sampling period %g is not finite and positive", period))
	}
	if tier != TierSummary && tier != TierDense {
		panic(fmt.Sprintf("metrics: unknown tier %d", int(tier)))
	}
	return &Collector{
		engine: engine,
		period: period,
		tier:   tier,
		jobs:   make(map[string]*job),
		byCID:  make(map[string]*job),
	}
}

// TrackJob registers a placed job. Call from the manager's OnPlace hook.
// Re-tracking an existing job name re-binds it to a new container — the
// manager does this when a job is rescheduled after a worker failure; the
// original start time is kept so CompletionTime covers the restart.
func (c *Collector) TrackJob(name, worker, model, containerID string, startedAt float64) {
	if j, ok := c.jobs[name]; ok {
		c.rebind(j, worker, containerID)
		j.Restarts++
		return
	}
	j := &job{JobRecord: JobRecord{
		Name:        name,
		ContainerID: containerID,
		Worker:      worker,
		Model:       model,
		StartedAt:   startedAt,
	}}
	if c.tier == TierDense {
		j.dense = new([numKinds]Series)
	} else {
		j.growthC = NewCompactSeries(0)
	}
	c.jobs[name] = j
	c.byCID[containerID] = j
}

// TrackJobMigrated re-binds a job to the container a live migration
// thawed it into. Call from the manager's OnMigrate hook: unlike a
// failure re-placement the move was lossless, so it counts as a
// Migration, not a Restart. A job never seen before falls through to
// TrackJob (defensive; the manager always places before it migrates).
func (c *Collector) TrackJobMigrated(name, worker, model, containerID string, startedAt float64) {
	j, ok := c.jobs[name]
	if !ok {
		c.TrackJob(name, worker, model, containerID, startedAt)
		return
	}
	c.rebind(j, worker, containerID)
	j.Migrations++
}

// TrackJobCheckpointed re-binds a job to the container a periodic
// checkpoint restored it into. Call from the manager's OnRestore hook:
// like a migration thaw the rebind is lossless, but the job (usually)
// never left its worker, so it counts as a Checkpoint — neither a
// Restart nor a Migration. A job never seen before falls through to
// TrackJob (defensive; the manager always places before it snapshots).
func (c *Collector) TrackJobCheckpointed(name, worker, model, containerID string, startedAt float64) {
	j, ok := c.jobs[name]
	if !ok {
		c.TrackJob(name, worker, model, containerID, startedAt)
		return
	}
	c.rebind(j, worker, containerID)
	j.Checkpoints++
}

// rebind points an open job record at a new container. Sampler slots
// holding the old container notice on their next pass: the record's
// ContainerID no longer names theirs.
func (c *Collector) rebind(j *job, worker, containerID string) {
	if j.Finished {
		panic(fmt.Sprintf("metrics: re-tracking finished job %q", j.Name))
	}
	delete(c.byCID, j.ContainerID)
	j.ContainerID = containerID
	j.Worker = worker
	c.byCID[containerID] = j
}

// JobExited records a job's completion. Call from the daemon's OnExit
// hook. An exit whose workload did not finish (a worker failure or manual
// stop) is not a completion — the job record stays open for re-binding.
func (c *Collector) JobExited(cont *simdocker.Container) {
	j, ok := c.byCID[cont.ID()]
	if !ok {
		return
	}
	if !cont.Workload().Done() {
		return
	}
	j.FinishedAt = float64(cont.FinishedAt())
	j.Finished = true
}

// sampler is one dense-tier worker's CPU and evaluation sampler. All its
// bookkeeping (usage differencing, post-exit tail counts) lives here; the
// collector's tick decides when its passes run.
type sampler struct {
	c      *Collector
	daemon *simdocker.Daemon
	// live holds one slot per container that can still produce a sample,
	// in creation order: a pass costs O(live containers), not O(every
	// container the daemon ever held).
	live []samplerSlot
	// lastAt is this sampler's previous pass (or its attach instant), so a
	// worker attached between ticks gets a partial first window.
	lastAt float64
}

// samplerSlot is the sampler's state for one live container.
type samplerSlot struct {
	cont *simdocker.Container
	// job is the record cont is bound to; nil until its id resolves in
	// byCID (OnStart fires before the manager's TrackJob) and again after
	// the record is rebound to another container.
	job *job
	// lastCPU is cont's cumulative CPU seconds at the previous sample.
	lastCPU float64
	// tail counts samples taken after cont was observed exited. At
	// PostExitSamples the slot is dropped; see the constant's doc for why
	// the cap is lossless.
	tail int
}

// AttachWorker subscribes the collector to a worker daemon's lifecycle. In
// TierDense the worker also gets a sampler, and the first attach schedules
// the tick: one metrics.sample event per period on the collector's engine,
// which passes every sampler in attach order and reschedules itself once —
// O(1) events per period however many workers there are. A worker attached between ticks joins the collector's phase;
// its first sample covers the time from attach to the next tick.
// Containers already in the daemon's pool are picked up, so attaching
// after launching works. TierSummary schedules nothing.
func (c *Collector) AttachWorker(name string, daemon *simdocker.Daemon) {
	daemon.OnExit(c.JobExited)
	if c.tier != TierDense {
		return
	}
	c.samplers = append(c.samplers, c.newSampler(daemon))
	if len(c.samplers) == 1 {
		c.tickFn = c.tick
		c.engine.After(c.period, sim.PriorityMetric, "metrics.sample", c.tickFn)
	}
}

// tick is the dense collector's metrics.sample event: one pass of every
// sampler, then the next period's event.
func (c *Collector) tick() {
	for _, s := range c.samplers {
		s.pass()
	}
	c.engine.After(c.period, sim.PriorityMetric, "metrics.sample", c.tickFn)
}

// newSampler builds a daemon's sampler: one slot per container already in
// the pool, extended from the daemon's start notifications. The caller
// decides when passes run.
func (c *Collector) newSampler(daemon *simdocker.Daemon) *sampler {
	s := &sampler{c: c, daemon: daemon, lastAt: float64(c.engine.Now())}
	track := func(cont *simdocker.Container) {
		s.live = append(s.live, samplerSlot{cont: cont})
	}
	daemon.EachContainer(track)
	daemon.OnStart(track)
	return s
}

// pass takes one sample of every live container and drops the slots that
// can produce no further sample. Allocation-free at steady state.
func (s *sampler) pass() {
	now := float64(s.c.engine.Now())
	dt := now - s.lastAt
	kept := s.live[:0]
	for i := range s.live {
		if s.sample(&s.live[i], now, dt) {
			kept = append(kept, s.live[i])
		}
	}
	clear(s.live[len(kept):]) // let dropped containers be collected
	s.live = kept
	s.lastAt = now
}

// sample records one slot's usage over the last dt seconds and reports
// whether the slot stays live.
func (s *sampler) sample(sl *samplerSlot, now, dt float64) bool {
	cont := sl.cont
	if cont.Removed() {
		// Frozen by a checkpoint, killed, or reaped on repair since the
		// last pass. Its final partial window goes unsampled: the job's
		// series continue from the container it is restored into, and
		// archives have always read that way.
		return false
	}
	exited := cont.State() == runtime.Exited
	j := sl.job
	if j == nil || j.ContainerID != cont.ID() {
		j = s.c.byCID[cont.ID()]
		sl.job = j
		if j == nil {
			// Untracked. A running container may yet be bound; an exited
			// one (e.g. replaced after a rebind) never will be.
			return !exited
		}
	}
	d := j.dense
	if j.Finished && exited {
		// Exited containers have final counters and a closed record: read
		// the CPU time alone, without the evaluation.
		if dt > 0 {
			d[kindCPU].Append(now, (cont.CPUSeconds()-sl.lastCPU)/dt)
		}
		sl.lastCPU = cont.CPUSeconds()
	} else {
		cpu, eval := s.daemon.Usage(cont)
		if dt > 0 {
			d[kindCPU].Append(now, (cpu-sl.lastCPU)/dt)
		}
		sl.lastCPU = cpu
		if !j.Finished {
			d[kindEval].Append(now, eval)
		}
	}
	if exited {
		sl.tail++
		return sl.tail < PostExitSamples
	}
	return true
}

// RecordRun implements flowcon.Tracer: per algorithm run it appends each
// tracked container's growth efficiency to its job's trajectory, and in
// TierDense also its limit and list membership.
func (c *Collector) RecordRun(e flowcon.TraceEntry) {
	c.algoRuns++
	now := float64(e.At)
	for _, tc := range e.Containers {
		if !tc.GDefined && c.tier == TierSummary {
			continue // the summary tier keeps growth only
		}
		j, ok := c.byCID[tc.ID]
		if !ok {
			continue
		}
		d := j.dense
		if d == nil {
			j.growthC.Append(now, tc.G)
			continue
		}
		if tc.GDefined {
			d[kindGrowth].Append(now, tc.G)
		}
		d[kindLimit].Append(now, tc.Limit)
		d[kindList].Append(now, float64(tc.List))
	}
}

// AlgorithmRuns returns how many Algorithm 1 trace entries were recorded.
func (c *Collector) AlgorithmRuns() int { return c.algoRuns }

// Jobs returns all tracked job records sorted by start time then name.
func (c *Collector) Jobs() []JobRecord {
	out := make([]JobRecord, 0, len(c.jobs))
	for _, j := range c.jobs {
		out = append(out, j.JobRecord)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].StartedAt != out[j].StartedAt {
			return out[i].StartedAt < out[j].StartedAt
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// series returns one of a job's raw traces: nil for an untracked job and
// outside TierDense.
func (c *Collector) series(name string, k seriesKind) *Series {
	if j := c.jobs[name]; j != nil && j.dense != nil {
		return &j.dense[k]
	}
	return nil
}

// CPUSeries returns the sampled CPU-usage trace for a job. Dense tier
// only: nil in TierSummary, which samples nothing.
func (c *Collector) CPUSeries(name string) *Series { return c.series(name, kindCPU) }

// EvalSeries returns the sampled evaluation-function trace for a job.
// Dense tier only: nil in TierSummary.
func (c *Collector) EvalSeries(name string) *Series { return c.series(name, kindEval) }

// LimitSeries returns the configured-limit trace for a job. Dense tier
// only: nil in TierSummary. Event traces that include limit updates (the
// §5.3 golden) therefore require TierDense.
func (c *Collector) LimitSeries(name string) *Series { return c.series(name, kindLimit) }

// GrowthSeries returns the growth-efficiency trace for a job. Dense tier
// only: nil in TierSummary — use GrowthAt there.
func (c *Collector) GrowthSeries(name string) *Series { return c.series(name, kindGrowth) }

// CPUSummary returns the moments of a job's CPU-usage trace, folded into
// a fresh SeriesSummary from CPUSeries on every call. Dense tier only, like
// CPUSeries: nil in TierSummary and for an untracked job. For the
// benchmark this means metrics.samples counts dense-tier samples only (it
// reads 0 on summary-tier workloads), and metrics.sample_ns, which times a
// summary-tier collector, times no tick against a no-op Sync.
func (c *Collector) CPUSummary(name string) *SeriesSummary {
	s := c.CPUSeries(name)
	if s == nil {
		return nil
	}
	sum := NewSeriesSummary()
	for _, ch := range s.chunks {
		for _, p := range ch {
			sum.Observe(p.T, p.V)
		}
	}
	return sum
}

// GrowthAt returns the growth efficiency in effect for a job at time t,
// the tier-agnostic query behind the GE@fraction report columns. ok is
// false when the job is unknown or had no growth sample at or before t.
// In TierDense the answer is exact; in TierSummary it comes from the
// bounded CompactSeries and is exact until compaction triggers (which no
// built-in scenario reaches — see DefaultCompactPoints).
func (c *Collector) GrowthAt(name string, t float64) (float64, bool) {
	j := c.jobs[name]
	if j == nil {
		return 0, false
	}
	if j.dense != nil {
		g := &j.dense[kindGrowth]
		if len(g.chunks) == 0 || g.chunks[0][0].T > t {
			return 0, false
		}
		return g.At(t), true
	}
	return j.growthC.At(t)
}

// MemoryBytes returns the collector's retained observability memory: per
// job the record itself plus everything it points at — raw series or the
// compact trajectory — and an estimate for its two index entries. It is
// the figure ./bench reports as metrics.collector_mb, and the one
// TestSummaryTierMemoryClusterScale uses to verify the summary tier is
// O(jobs) rather than O(jobs × makespan).
func (c *Collector) MemoryBytes() int {
	// The name and container-id index entries: a string header and a
	// pointer each, at the runtime map's ~7/8 load factor. Key bytes
	// belong to the caller's strings and are not counted.
	const indexEntries = 2 * 28
	fixed := int(unsafe.Sizeof(job{})) + indexEntries
	total := 0
	for _, j := range c.jobs {
		total += fixed
		if d := j.dense; d != nil {
			for k := range d {
				total += d[k].MemoryBytes()
			}
		} else {
			total += j.growthC.MemoryBytes()
		}
	}
	return total
}

// Makespan returns the total schedule length: latest finish over all jobs
// (0 origin, as the paper measures from the first submission at 0s).
func (c *Collector) Makespan() float64 {
	end := 0.0
	for _, j := range c.jobs {
		if j.Finished && j.FinishedAt > end {
			end = j.FinishedAt
		}
	}
	return end
}

// AllFinished reports whether every tracked job completed.
func (c *Collector) AllFinished() bool {
	for _, j := range c.jobs {
		if !j.Finished {
			return false
		}
	}
	return len(c.jobs) > 0
}

// Overlap returns the time span during which all the named jobs were
// running simultaneously (the quantity the paper analyses in Section 5.3).
func (c *Collector) Overlap(names ...string) float64 {
	start := 0.0
	end := 0.0
	for i, n := range names {
		r, ok := c.jobs[n]
		if !ok || !r.Finished {
			return 0
		}
		if i == 0 || r.StartedAt > start {
			start = r.StartedAt
		}
		if i == 0 || r.FinishedAt < end {
			end = r.FinishedAt
		}
	}
	if end <= start {
		return 0
	}
	return end - start
}

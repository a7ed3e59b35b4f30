package metrics

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/flowcon"
	"repro/internal/sim"
	"repro/internal/simdocker"
	"repro/internal/stats"
)

// PostExitSamples is the documented post-exit sampler horizon: an exited
// container contributes at most this many further CPU samples — the
// partial window covering the exit instant and the first all-zero window
// — before the sampler seals it, drops it from iteration and frees its
// differencing state. Every later sample would be identically zero, so
// the cap loses no information while keeping both collection tiers from
// accumulating an O(makespan) zero tail per finished job (the PR 5
// "sharded sampler tail" finding).
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

// seriesKind indexes the five series the collector keeps per job.
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
// summary, the constant-memory summaries (held by value and pointing at
// nothing, so the record is one allocation) and the tier's trajectory
// store. Both indexes — jobs by name, byCID by container — lead here, so
// the sampling and tracing paths do one lookup and then follow pointers.
type job struct {
	JobRecord

	// sums are observed as samples arrive in TierSummary; in TierDense
	// they are folded from the raw traces on read (see fold).
	sums [numKinds]SeriesSummary
	// dense holds the raw traces; nil in TierSummary.
	dense *denseTraces
	// growthC is the bounded growth trajectory behind GrowthAt; nil in
	// TierDense, which answers from the raw growth trace.
	growthC *CompactSeries
}

// denseTraces is a dense-tier job's raw traces, the only store written
// while the job is sampled. folded[k] counts the points of series[k]
// already folded into the job's summary and the run sketch of kind k.
type denseTraces struct {
	series [numKinds]Series
	folded [numKinds]int
}

// observe records one sample of kind k for job j in the active tier's
// store: the raw trace in TierDense, else the job's moments and the run
// sketch. Allocation-free at steady state: the run sketch has a bucket
// for every magnitude the run has seen, and a dense chunk holds many
// points.
func (c *Collector) observe(j *job, k seriesKind, t, v float64) {
	if j.dense != nil {
		j.dense.series[k].Append(t, v)
		return
	}
	j.sums[k].Observe(t, v)
	c.sketches[k].Add(v)
}

// fold returns job j's summary of kind k. In TierDense it first folds the
// points appended since the last read into the summary and the run
// sketch. They go in in order, so the summary is bit-identical to one
// observed as the samples arrived, and folded[k] makes each point go in
// once. The fold walks the chunks: compacting them would allocate every
// point a second time.
func (c *Collector) fold(j *job, k seriesKind) *SeriesSummary {
	sum := &j.sums[k]
	d := j.dense
	if d == nil {
		return sum
	}
	sk := &c.sketches[k]
	skip := d.folded[k]
	for _, ch := range d.series[k].chunks {
		if skip >= len(ch) {
			skip -= len(ch)
			continue
		}
		for _, p := range ch[skip:] {
			sum.Observe(p.T, p.V)
			sk.Add(p.V)
		}
		skip = 0
	}
	d.folded[k] = d.series[k].Len()
	return sum
}

// Collector accumulates everything an experiment reports. It subscribes to
// worker daemons for job lifecycle and samples CPU usage at a fixed
// period, and implements flowcon.Tracer to capture growth-efficiency and
// limit traces.
//
// Memory behavior is governed by the collector's Tier. TierSummary keeps
// O(1) online moments (SeriesSummary) per job/kind — total memory is
// O(jobs), independent of makespan — plus one bounded CompactSeries per
// job so GrowthAt can answer the GE@fraction report columns. TierDense
// retains every raw sample in full Series, O(jobs × makespan), and stores
// nothing else while the run samples: its summaries are folded from the
// raw series on first read. The raw-series accessors (CPUSeries etc.)
// return nil outside that tier. In both tiers quantiles are run-level:
// one QuantileSketch per kind over every job's samples, five per run. A
// DDSketch merges by adding bucket counts, so the run sketch carries the
// same relative-error guarantee over the run's samples as per-job
// sketches merged after the fact.
//
// A Collector is not safe for concurrent use, with one exception:
// RecordRun, which controllers on different sharded worker lanes call
// concurrently, takes the collector's mutex around the shared sketches.
// Reads mutate the collector too: in TierDense a summary read folds
// pending points in, and Points compacts a chunked series.
type Collector struct {
	engine *sim.Engine
	period float64
	tier   Tier

	jobs  map[string]*job // by job name
	byCID map[string]*job // by the container the job is bound to

	// samplers holds one sampler per attached worker, in attach order;
	// tickFn is the bound tick method, built once so rescheduling the
	// metrics.sample event allocates only the event.
	samplers []*sampler
	tickFn   func()

	// algoRuns is atomic: in a sharded simulation controllers on different
	// worker lanes record runs concurrently. The total is deterministic
	// even though the increment order is not.
	algoRuns atomic.Int64

	// sketches are the run's quantile sketches, one per kind. mu guards
	// them in RecordRun; the sampler runs on lane 0 outside parallel
	// batches and takes no lock. Below the sketch's bucket cap, which no
	// metric stream approaches, bucket counts do not depend on the order
	// values arrive in, so the quantiles are deterministic across lanes.
	mu       sync.Mutex
	sketches [numKinds]stats.QuantileSketch
}

// NewCollector creates a summary-tier collector sampling CPU usage every
// period seconds. Use NewCollectorTier to opt into dense retention.
func NewCollector(engine *sim.Engine, period float64) *Collector {
	return NewCollectorTier(engine, period, TierSummary)
}

// NewCollectorTier creates a collector with an explicit retention tier.
// The tier only changes what is retained, never what the simulation does:
// samplers fire at the same instants either way. The period must be finite
// and positive.
func NewCollectorTier(engine *sim.Engine, period float64, tier Tier) *Collector {
	if !(period > 0) || math.IsInf(period, 1) {
		panic(fmt.Sprintf("metrics: sampling period %g is not finite and positive", period))
	}
	if tier != TierSummary && tier != TierDense {
		panic(fmt.Sprintf("metrics: unknown tier %d", int(tier)))
	}
	c := &Collector{
		engine: engine,
		period: period,
		tier:   tier,
		jobs:   make(map[string]*job),
		byCID:  make(map[string]*job),
	}
	for k := range c.sketches {
		c.sketches[k].Init(SketchAccuracy)
	}
	return c
}

// Tier returns the collector's retention tier.
func (c *Collector) Tier() Tier { return c.tier }

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
		j.dense = new(denseTraces)
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

// sampler is one worker's CPU sampler. All its bookkeeping (usage
// differencing, post-exit tail counts) lives here; the collector's tick
// decides when its passes run.
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

// AttachWorker subscribes the collector to a worker daemon's lifecycle and
// adds a CPU sampler for it to the collector's periodic tick. The first
// attach schedules the tick: one metrics.sample event per period on the
// collector's engine, which runs every attached worker's sampler in attach
// order and reschedules itself once — O(1) events per period however many
// workers there are. In a sharded simulation the tick rides the cluster
// lane (lane 0), so it runs on the coordinator outside parallel batches,
// where reading any worker's daemon is safe. A worker attached between
// ticks joins the collector's phase; its first sample covers the time
// from attach to the next tick. Containers already in the daemon's pool
// are picked up, so attaching after launching works.
func (c *Collector) AttachWorker(name string, daemon *simdocker.Daemon) {
	daemon.OnExit(c.JobExited)
	c.samplers = append(c.samplers, c.newSampler(daemon))
	if len(c.samplers) == 1 {
		c.tickFn = c.tick
		c.engine.After(c.period, sim.PriorityMetric, "metrics.sample", c.tickFn)
	}
}

// tick is the collector's metrics.sample event: one pass of every
// attached sampler, then the next period's event.
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
	s.daemon.Sync()
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
	exited := cont.State() == simdocker.Exited
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
	if j.Finished && exited {
		// Exited containers have frozen counters and a closed record:
		// read them without settling. The values are identical.
		if dt > 0 {
			s.c.observe(j, kindCPU, now, (cont.CPUSeconds()-sl.lastCPU)/dt)
		}
		sl.lastCPU = cont.CPUSeconds()
	} else {
		cpu, eval := s.daemon.Usage(cont)
		if dt > 0 {
			s.c.observe(j, kindCPU, now, (cpu-sl.lastCPU)/dt)
		}
		sl.lastCPU = cpu
		if !j.Finished {
			s.c.observe(j, kindEval, now, eval)
		}
	}
	if exited {
		sl.tail++
		return sl.tail < PostExitSamples
	}
	return true
}

// RecordRun implements flowcon.Tracer: it stores growth efficiency, limit
// and list membership per algorithm run. It holds the collector's mutex
// for the whole call: controllers on different sharded worker lanes share
// the run sketches.
func (c *Collector) RecordRun(e flowcon.TraceEntry) {
	c.algoRuns.Add(1)
	c.mu.Lock()
	defer c.mu.Unlock()
	now := float64(e.At)
	for _, tc := range e.Containers {
		j, ok := c.byCID[tc.ID]
		if !ok {
			continue
		}
		if tc.GDefined {
			if j.growthC != nil {
				j.growthC.Append(now, tc.G)
			}
			c.observe(j, kindGrowth, now, tc.G)
		}
		c.observe(j, kindLimit, now, tc.Limit)
		c.observe(j, kindList, now, float64(tc.List))
	}
}

// AlgorithmRuns returns how many Algorithm 1 trace entries were recorded.
func (c *Collector) AlgorithmRuns() int { return int(c.algoRuns.Load()) }

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

// Job returns one tracked job record by name.
func (c *Collector) Job(name string) (JobRecord, bool) {
	j, ok := c.jobs[name]
	if !ok {
		return JobRecord{}, false
	}
	return j.JobRecord, true
}

// series returns one of a job's raw traces: nil for an untracked job and
// outside TierDense.
func (c *Collector) series(name string, k seriesKind) *Series {
	if j := c.jobs[name]; j != nil && j.dense != nil {
		return &j.dense.series[k]
	}
	return nil
}

// summary returns one of a job's constant-memory summaries (available in
// both tiers; folded on read in TierDense), or nil for an untracked job.
func (c *Collector) summary(name string, k seriesKind) *SeriesSummary {
	if j := c.jobs[name]; j != nil {
		return c.fold(j, k)
	}
	return nil
}

// CPUSeries returns the sampled CPU-usage trace for a job. Dense tier
// only: nil in TierSummary — use CPUSummary there.
func (c *Collector) CPUSeries(name string) *Series { return c.series(name, kindCPU) }

// EvalSeries returns the sampled evaluation-function trace for a job.
// Dense tier only: nil in TierSummary — use EvalSummary there.
func (c *Collector) EvalSeries(name string) *Series { return c.series(name, kindEval) }

// LimitSeries returns the configured-limit trace for a job. Dense tier
// only: nil in TierSummary — use LimitSummary there. Event traces that
// include limit updates (the §5.3 golden) therefore require TierDense.
func (c *Collector) LimitSeries(name string) *Series { return c.series(name, kindLimit) }

// GrowthSeries returns the growth-efficiency trace for a job. Dense tier
// only: nil in TierSummary — use GrowthAt or GrowthSummary there.
func (c *Collector) GrowthSeries(name string) *Series { return c.series(name, kindGrowth) }

// ListSeries returns the list-membership trace for a job. Dense tier
// only: nil in TierSummary — use ListSummary there.
func (c *Collector) ListSeries(name string) *Series { return c.series(name, kindList) }

// CPUSummary returns the constant-memory CPU-usage summary for a job
// (available in both tiers; in TierDense this read folds in the samples
// appended since the last one), or nil for an untracked job.
func (c *Collector) CPUSummary(name string) *SeriesSummary { return c.summary(name, kindCPU) }

// EvalSummary returns the evaluation-function summary for a job.
func (c *Collector) EvalSummary(name string) *SeriesSummary { return c.summary(name, kindEval) }

// LimitSummary returns the configured-limit summary for a job.
func (c *Collector) LimitSummary(name string) *SeriesSummary { return c.summary(name, kindLimit) }

// GrowthSummary returns the growth-efficiency summary for a job.
func (c *Collector) GrowthSummary(name string) *SeriesSummary { return c.summary(name, kindGrowth) }

// ListSummary returns the list-membership summary for a job.
func (c *Collector) ListSummary(name string) *SeriesSummary { return c.summary(name, kindList) }

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
		g := &j.dense.series[kindGrowth]
		if len(g.chunks) == 0 || g.chunks[0][0].T > t {
			return 0, false
		}
		return g.At(t), true
	}
	return j.growthC.At(t)
}

// MemoryBytes returns the collector's retained observability memory: the
// five run sketches, and per job the record itself (lifecycle fields and
// the summaries it embeds) plus everything it points at — raw series or
// the compact trajectory — and an estimate for its two index entries. It
// reads no summary: in TierDense the run sketches hold only the points
// folded by reads so far. It is the figure ./bench reports as
// metrics.collector_mb, and the one TestSummaryTierMemoryClusterScale
// uses to verify the summary tier is O(jobs) rather than
// O(jobs × makespan).
func (c *Collector) MemoryBytes() int {
	// The name and container-id index entries: a string header and a
	// pointer each, at the runtime map's ~7/8 load factor. Key bytes
	// belong to the caller's strings and are not counted.
	const indexEntries = 2 * 28
	// The record, summaries included: they point at nothing.
	fixed := int(unsafe.Sizeof(job{})) + indexEntries
	total := 0
	for k := range c.sketches {
		total += c.sketches[k].MemoryBytes()
	}
	for _, j := range c.jobs {
		total += fixed
		if d := j.dense; d != nil {
			total += int(unsafe.Sizeof(d.folded))
			for k := range d.series {
				total += d.series[k].MemoryBytes()
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

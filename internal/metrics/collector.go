package metrics

import (
	"fmt"
	"math"
	"sort"
	"unsafe"

	"repro/internal/flowcon"
	"repro/internal/sim"
	"repro/internal/simdocker"
)

// PostExitSamples is the documented post-exit horizon of the dense CPU
// series: an exited container contributes at most this many further CPU
// samples — the partial window covering the exit instant and the first
// all-zero window — and none after. Every later sample would be
// identically zero, so the cap loses no information while keeping the
// dense tier from holding an O(makespan) zero tail per finished job.
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
// byCID by container — lead here, so the tracing path does one lookup
// and then follows pointers.
type job struct {
	JobRecord

	// dense holds the raw series and what derives them; nil in
	// TierSummary.
	dense *denseJob
	// growthC is the bounded growth trajectory behind GrowthAt; nil in
	// TierDense, which answers from the raw growth trace.
	growthC *CompactSeries
}

// denseJob is a dense-tier job's trajectory store. RecordRun appends the
// growth, limit and list series. The CPU and evaluation series are
// derived from the rate log on read (see derive) and kept until a later
// tick makes them stale.
type denseJob struct {
	series [numKinds]Series
	// derived[k] is 1 + the tick count series[k] was derived over, for
	// the two derived kinds; 0 before the first read.
	derived [kindEval + 1]int
	// binds are the containers the job was bound to, in order, each with
	// the stamp of the binding.
	binds []bind
	// finished is the stamp at which the job completed, if it did.
	finished uint64
}

// bind records that a job was bound to container cid from stamp on: a
// tick whose stamp is at least that samples cid for the job.
type bind struct {
	cid   string
	stamp uint64
}

// Collector accumulates everything an experiment reports. It subscribes to
// worker daemons for job lifecycle and implements flowcon.Tracer to
// capture growth-efficiency traces.
//
// What it keeps is governed by the collector's Tier. TierSummary keeps the
// job records and one bounded CompactSeries of growth per job, so GrowthAt
// can answer the GE@fraction report columns: total memory is O(jobs),
// independent of makespan. It has no periodic tick. TierDense keeps every
// Algorithm 1 run's growth, limit and list in full Series, and a CPU and
// evaluation sample per job every period. Those two are not read off the
// daemons each period: each worker's daemon reports every change to a
// container's read inputs to the collector's rate log (see
// simdocker.Observer), each period's tick only notes its instant, and
// CPUSeries, EvalSeries, CPUSummary and Export derive the samples a read
// at every tick would have returned (see replay). The raw-series
// accessors (CPUSeries etc.) and CPUSummary return nil outside that tier.
//
// A Collector is not safe for concurrent use. Its reads mutate it too:
// they derive and cache series, and Points compacts a chunked series.
type Collector struct {
	engine *sim.Engine
	period float64
	tier   Tier

	jobs  map[string]*job // by job name
	byCID map[string]*job // by the container the job is bound to

	// workers holds one rate log per attached worker, in attach order, in
	// TierDense and none in TierSummary.
	workers []*workerLog
	// ticks are the metrics.sample events that have run, in order.
	ticks []tickMark
	// tickEv is the metrics.sample event, re-armed every period.
	tickEv *sim.Event
	// conts groups the rate logs by container id for derivation. Reads
	// build it and extend it with what was logged since; indexedTicks is
	// the tick count at the last extension.
	conts        map[string]*contLog
	indexedTicks int

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
		j.dense = &denseJob{binds: []bind{{cid: containerID, stamp: c.engine.Executed()}}}
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

// rebind points an open job record at a new container. From the next
// tick on the job is sampled from the new container, and the old one
// samples nothing more.
func (c *Collector) rebind(j *job, worker, containerID string) {
	if j.Finished {
		panic(fmt.Sprintf("metrics: re-tracking finished job %q", j.Name))
	}
	delete(c.byCID, j.ContainerID)
	j.ContainerID = containerID
	j.Worker = worker
	c.byCID[containerID] = j
	if d := j.dense; d != nil {
		d.binds = append(d.binds, bind{cid: containerID, stamp: c.engine.Executed()})
	}
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
	if j.dense != nil {
		j.dense.finished = c.engine.Executed()
	}
}

// AttachWorker subscribes the collector to a worker daemon's lifecycle. In
// TierDense the collector also becomes the daemon's observer (a daemon
// has one, so one dense collector observes it), logging every change to
// a container's read inputs in the worker's rate log (containers already
// in the pool are logged at once, so attaching after launching works),
// and the first attach schedules the tick: one
// metrics.sample event per period on the collector's engine, however
// many workers there are. A worker attached between ticks joins the
// collector's phase; its first sample covers the time from attach to the
// next tick. TierSummary schedules nothing.
func (c *Collector) AttachWorker(name string, daemon *simdocker.Daemon) {
	daemon.OnExit(c.JobExited)
	if c.tier != TierDense {
		return
	}
	w := &workerLog{daemon: daemon, at: float64(c.engine.Now()), stamp: c.engine.Executed()}
	c.workers = append(c.workers, w)
	daemon.SetObserver(w)
	if c.tickEv == nil {
		c.tickEv = c.engine.After(c.period, sim.PriorityMetric, "metrics.sample", c.tick)
	}
}

// tick is the dense collector's metrics.sample event: it notes its
// instant and stamp, the samples' timestamps, and re-arms itself for the
// next period. It reads no daemon.
func (c *Collector) tick() {
	now := c.engine.Now()
	c.ticks = append(c.ticks, tickMark{at: float64(now), stamp: c.engine.Executed()})
	c.engine.Rearm(c.tickEv, now+sim.Time(c.period))
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
		if j.dense == nil {
			j.growthC.Append(now, tc.G)
			continue
		}
		d := &j.dense.series
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

// series returns one of a job's raw traces, derived first if it is a
// derived kind: nil for an untracked job and outside TierDense.
func (c *Collector) series(name string, k seriesKind) *Series {
	j := c.jobs[name]
	if j == nil || j.dense == nil {
		return nil
	}
	if k <= kindEval {
		c.derive(j, k)
	}
	return &j.dense.series[k]
}

// CPUSeries returns the CPU-usage trace for a job: one sample per tick
// while it is bound to a container, each the container's CPU seconds
// over the tick's window divided by the window. Dense tier only: nil in
// TierSummary, which samples nothing.
func (c *Collector) CPUSeries(name string) *Series { return c.series(name, kindCPU) }

// EvalSeries returns the evaluation-function trace for a job: its
// workload's evaluation value at every tick until it finishes. Dense
// tier only: nil in TierSummary.
func (c *Collector) EvalSeries(name string) *Series { return c.series(name, kindEval) }

// LimitSeries returns the configured-limit trace for a job. Dense tier
// only: nil in TierSummary. Event traces that include limit updates (the
// §5.3 golden) therefore require TierDense.
func (c *Collector) LimitSeries(name string) *Series { return c.series(name, kindLimit) }

// GrowthSeries returns the growth-efficiency trace for a job. Dense tier
// only: nil in TierSummary — use GrowthAt there.
func (c *Collector) GrowthSeries(name string) *Series { return c.series(name, kindGrowth) }

// CPUSummary returns the moments of a job's CPU-usage trace, folded into
// a fresh SeriesSummary on every call: the samples are derived from the
// rate log and streamed into it, without materialising CPUSeries. Dense
// tier only, like CPUSeries: nil in TierSummary and for an untracked job.
// For the benchmark this means metrics.samples counts dense-tier samples
// only (it reads 0 on summary-tier workloads), and metrics.sample_ns,
// which times a summary-tier collector, times no tick against a no-op
// Sync.
func (c *Collector) CPUSummary(name string) *SeriesSummary {
	j := c.jobs[name]
	if j == nil || j.dense == nil {
		return nil
	}
	sum := NewSeriesSummary()
	c.replay(j, sum.Observe, nil)
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
		g := &j.dense.series[kindGrowth]
		if len(g.chunks) == 0 || g.chunks[0][0].T > t {
			return 0, false
		}
		return g.At(t), true
	}
	return j.growthC.At(t)
}

// MemoryBytes returns the collector's retained observability memory: per
// job the record itself plus everything it points at — raw series (the
// derived CPU and evaluation series only once a read materialised them)
// and bindings, or the compact trajectory — and an estimate for its two
// index entries; in TierDense also the rate logs, the tick instants and
// the container index reads build over the logs. It is the figure
// ./bench reports as metrics.collector_mb, and the one
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
			total += int(unsafe.Sizeof(*d)) + cap(d.binds)*int(unsafe.Sizeof(bind{}))
			for k := range d.series {
				total += d.series[k].MemoryBytes()
			}
		} else {
			total += j.growthC.MemoryBytes()
		}
	}
	return total + c.rateLogBytes()
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

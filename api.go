// Package repro is the public API of the FlowCon reproduction — elastic
// flow configuration for containerized deep-learning applications (Zheng
// et al., ICPP 2019) rebuilt as a deterministic Go library.
//
// The package re-exports the library's stable surface from the internal
// implementation packages:
//
//   - model profiles and convergence curves (define or pick training jobs),
//   - scheduling policies (FlowCon, the NA baseline, static equal shares,
//     and a SLAQ-like quality-driven baseline),
//   - the experiment runner (assemble workloads, run them to completion,
//     collect completion times, CPU and growth-efficiency traces),
//   - the workload generators and report renderers used to regenerate
//     every table and figure of the paper.
//
// # Quick start
//
//	subs := repro.FixedSchedule()
//	fc := repro.Run(repro.Spec{
//	    Name:        "demo",
//	    NewPolicy:   repro.FlowConPolicy(0.05, 20),
//	    Submissions: subs,
//	})
//	na := repro.Run(repro.Spec{
//	    Name:        "demo-na",
//	    NewPolicy:   repro.NAPolicy(20),
//	    Submissions: subs,
//	})
//	repro.ReportPair(os.Stdout, fc, na, "FlowCon vs NA")
//
// # Parallel sweeps
//
// Sweep executes many Specs across a bounded worker pool — each run has
// its own simulation engine, so results are byte-identical to a serial
// loop while the wall clock scales with cores:
//
//	specs, _ := repro.Grid{
//	    Name:      "sensitivity",
//	    Workload:  func(seed int64) []repro.Submission { return repro.RandomN(10, seed) },
//	    Seeds:     []int64{1, 2, 3},
//	    Alphas:    []float64{0.03, 0.05, 0.10},
//	    Itvals:    []float64{20, 30, 60},
//	    IncludeNA: true,
//	}.Specs()
//	sr, err := repro.Sweep(ctx, specs, repro.SweepOptions{Parallelism: 8})
//	repro.ReportSweepResult(os.Stdout, sr)
//
// Sweep isolates per-run panics into that run's RunReport.Err, honours
// ctx cancellation, and reports progress through SweepOptions.Observer.
// The flowcon-sim command exposes the pool width as -parallel N.
//
// # Sharded simulation
//
// Sweep parallelizes across runs; Spec.SimShards parallelizes inside one:
// every worker's events ride a private lane, lanes execute concurrently
// inside conservative epochs bounded by the next cluster-level event
// (arrival, migration, failure, drain, rebalancer scan), and epoch merges
// are deterministic, so output stays byte-identical to the serial engine
// at any shard count:
//
//	spec.SimShards = -1 // auto: one goroutine per core
//	res := repro.Run(spec)
//
// The flowcon-sim command exposes it as -shard-sim N (0 = auto). A single
// 256-worker run then scales with cores instead of pinning one.
//
// # Observability tiers
//
// Metric collection is tiered (Spec.TraceLevel). The default TierSummary
// keeps only constant-memory online summaries per job/kind — Welford
// moments plus a streaming quantile sketch (SeriesSummary) and a bounded
// growth trajectory (CompactSeries) — so memory is O(jobs), independent of
// run length, and every scenario-table column is still available (quantiles
// within SketchAccuracy relative error; exact for all built-in scenarios).
// TierDense retains full Series for figure regeneration and raw-trace
// analysis at O(samples) memory:
//
//	spec.TraceLevel = repro.TierDense // opt in to raw series retention
//	res := repro.Run(spec)
//	cpu := res.Collector.CPUSeries("job") // nil in the summary tier
//
// Both tiers maintain the summaries, cap the post-exit sampler tail at
// PostExitSamples windows, and sample at identical instants — the tier
// changes retention only, never simulation behavior. Archives written by
// Export carry schema version ArchiveSchemaVersion and the producing tier;
// ReadArchive rejects other schemas loudly. The flowcon-sim command
// exposes the tier as -trace-level {summary,dense}. See the README
// "Observability" section for the memory model.
//
// See the runnable programs under examples/ for complete scenarios.
package repro

import (
	"io"

	"repro/internal/cluster"
	"repro/internal/dlmodel"
	"repro/internal/experiment"
	"repro/internal/flowcon"
	"repro/internal/metrics"
	"repro/internal/migrate"
	"repro/internal/realtime"
	rt "repro/internal/runtime"
	"repro/internal/sched"
	"repro/internal/simdocker"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Model profiles and curves (see internal/dlmodel).
type (
	// Profile describes one trainable model: epoch budget, convergence
	// curve, resource footprint.
	Profile = dlmodel.Profile
	// Curve is a noiseless evaluation trajectory over delivered CPU work.
	Curve = dlmodel.Curve
	// ExpCurve is exponential loss decay.
	ExpCurve = dlmodel.ExpCurve
	// PowerCurve is heavy-tailed power-law decay.
	PowerCurve = dlmodel.PowerCurve
	// LogisticCurve is S-shaped progress (accuracy-style metrics).
	LogisticCurve = dlmodel.LogisticCurve
	// Framework is the DL platform (PyTorch / TensorFlow).
	Framework = dlmodel.Framework
	// Direction says whether the eval function improves down or up.
	Direction = dlmodel.Direction
)

// Framework and direction constants.
const (
	PyTorch    = dlmodel.PyTorch
	TensorFlow = dlmodel.TensorFlow
	Decreasing = dlmodel.Decreasing
	Increasing = dlmodel.Increasing
)

// Model catalog (the paper's Table 1 plus the Figure 1 extras).
var (
	VAEPyTorch         = dlmodel.VAEPyTorch
	VAETensorFlow      = dlmodel.VAETensorFlow
	MNISTPyTorch       = dlmodel.MNISTPyTorch
	MNISTTensorFlow    = dlmodel.MNISTTensorFlow
	LSTMCFC            = dlmodel.LSTMCFC
	LSTMCRF            = dlmodel.LSTMCRF
	BiRNN              = dlmodel.BiRNN
	GRU                = dlmodel.GRU
	CNNLSTM            = dlmodel.CNNLSTM
	LogisticRegression = dlmodel.LogisticRegression
	Table1             = dlmodel.Table1
	Catalog            = dlmodel.Catalog
	ModelByKey         = dlmodel.ByKey
)

// FlowCon configuration (see internal/flowcon).
type (
	// FlowConConfig holds α, β, the executor interval and back-off knobs.
	FlowConConfig = flowcon.Config
	// List is the NL/WL/CL classification.
	List = flowcon.List
)

// List constants.
const (
	NewList        = flowcon.NewList
	WatchingList   = flowcon.WatchingList
	CompletingList = flowcon.CompletingList
)

// DefaultFlowConConfig is the paper's best observed setting (α=3%,
// itval=30s, β=2).
var DefaultFlowConConfig = flowcon.DefaultConfig

// Workloads (see internal/workload).
type Submission = workload.Submission

// Workload generators for the paper's three scenarios.
var (
	FixedSchedule = workload.FixedSchedule
	RandomFive    = workload.RandomFive
	RandomN       = workload.RandomN
)

// Scenario engine: arrival processes, job mixes, and trace record/replay
// (see internal/workload).
type (
	// ArrivalProcess generates seeded arrival times in a window.
	ArrivalProcess = workload.ArrivalProcess
	// Poisson is a constant-rate memoryless stream.
	Poisson = workload.Poisson
	// OnOff is a bursty stream alternating ON/OFF phases.
	OnOff = workload.OnOff
	// Diurnal is a sinusoidally modulated stream (day/night cycles).
	Diurnal = workload.Diurnal
	// FlashCrowd is a steady trickle plus one spike.
	FlashCrowd = workload.FlashCrowd
	// ProductionDay is a diurnal base rate with superimposed flash
	// crowds — the megacluster scenario family's arrival process.
	ProductionDay = workload.ProductionDay
	// Spike is one flash crowd inside a ProductionDay.
	Spike = workload.Spike
	// ArrivalStream is the pull-iterator (lazy) form of a schedule;
	// WorkloadGenerator.Stream emits the identical sequence Generate
	// materializes for the same seed.
	ArrivalStream = workload.ArrivalStream
	// UniformWindow is the paper's N-jobs-at-uniform-times process.
	UniformWindow = workload.UniformWindow
	// WorkloadGenerator composes a process with a job mix into seeded
	// schedules.
	WorkloadGenerator = workload.Generator
	// Mix is a weighted distribution over model profiles.
	Mix = workload.Mix
	// MixEntry is one weighted model in a Mix.
	MixEntry = workload.MixEntry
)

// Mix constructors.
var (
	UniformMix          = workload.UniformMix
	CatalogMix          = workload.CatalogMix
	ProductionTenantMix = workload.ProductionTenantMix
)

// RecordTrace / ReplayTrace serialize schedules as JSONL traces that
// round-trip byte-identically (see internal/workload Record/Replay).
// The *Stream forms are their lazy equivalents: RecordTraceStream drains
// an ArrivalStream to a writer and ReplayTraceStream reads a trace one
// submission at a time, both in O(1) schedule memory. SliceStream and
// CollectStream convert between the materialized and lazy forms.
var (
	RecordTrace       = workload.Record
	ReplayTrace       = workload.Replay
	RecordTraceStream = workload.RecordStream
	ReplayTraceStream = workload.ReplayStream
	SliceStream       = workload.SliceStream
	CollectStream     = workload.Collect
)

// Experiments (see internal/experiment).
type (
	// Spec describes one simulation run.
	Spec = experiment.Spec
	// Result is the outcome: job records, makespan, traces.
	Result = experiment.Result
	// Setting is a FlowCon (α, itval) pair or the NA baseline in sweeps.
	Setting = experiment.Setting
	// SettingSweep is a family of runs across settings (Figures 3-6/9).
	SettingSweep = experiment.SettingSweep
	// SweepOptions tunes Sweep: pool width and progress observer.
	SweepOptions = experiment.SweepOptions
	// SweepEvent is one per-run progress notification from Sweep.
	SweepEvent = experiment.SweepEvent
	// RunReport is one run's slot (Result or Err) in a SweepResult.
	RunReport = experiment.RunReport
	// SweepResult aggregates a sweep: per-run reports in spec order plus
	// wall-clock/serial-work accounting.
	SweepResult = experiment.SweepResult
	// Grid expands α/itval/seed/worker-count cross-products into Specs.
	Grid = experiment.Grid
	// Scenario is a named workload family in the scenario registry.
	Scenario = experiment.Scenario
	// ScenarioOutcome is one scenario's per-seed reports from a sweep.
	ScenarioOutcome = experiment.ScenarioOutcome
	// TraceEvent is one line of a run's JSONL event trace.
	TraceEvent = experiment.TraceEvent
	// JobRecord is one job's lifecycle summary.
	JobRecord = metrics.JobRecord
	// Series is a dense time series of observations — O(samples) memory,
	// retained only in TierDense (nil accessors in the summary tier).
	Series = metrics.Series
	// Policy is a worker resource-management strategy.
	Policy = sched.Policy
)

// Run executes a Spec to completion, panicking on an invalid spec.
var Run = experiment.Run

// RunE is Run with errors instead of panics on invalid specs.
var RunE = experiment.RunE

// Sweep executes Specs across a bounded worker pool with per-run panic
// isolation, deterministic spec-order results, and context cancellation.
var Sweep = experiment.Sweep

// SettingSpecs expands one workload across policy settings into Specs.
var SettingSpecs = experiment.SettingSpecs

// Scenario registry and runner (see internal/experiment). RegisterScenario
// adds custom scenarios next to the built-in Poisson / bursty / diurnal /
// flash-crowd arrival processes; RunScenarios executes (scenario, seed)
// pairs across the sweep pool.
var (
	RegisterScenario = experiment.RegisterScenario
	Scenarios        = experiment.Scenarios
	AllScenarios     = experiment.AllScenarios
	ScenarioByName   = experiment.ScenarioByName
	ScenarioSeeds    = experiment.ScenarioSeeds
	RunScenarios     = experiment.RunScenarios
	EventTrace       = experiment.EventTrace
	WriteEventTrace  = experiment.WriteEventTrace
)

// DefaultParallelism / SetDefaultParallelism control the pool width used
// when SweepOptions.Parallelism is zero (default runtime.GOMAXPROCS).
var (
	DefaultParallelism    = experiment.DefaultParallelism
	SetDefaultParallelism = experiment.SetDefaultParallelism
)

// Policy factories.
var (
	FlowConPolicy            = experiment.FlowConPolicy
	FlowConPolicyNoListeners = experiment.FlowConPolicyNoListeners
	FlowConPolicyNoBackoff   = experiment.FlowConPolicyNoBackoff
	FlowConPolicyBeta        = experiment.FlowConPolicyBeta
	NAPolicy                 = experiment.NAPolicy
	StaticEqualPolicy        = experiment.StaticEqualPolicy
	SLAQPolicy               = experiment.SLAQPolicy
	TimeSlicePolicy          = experiment.TimeSlicePolicy
)

// Cluster placement strategies for multi-worker Specs.
type Placement = cluster.Placement

// Placement strategies.
var (
	LeastLoaded   = cluster.LeastLoaded
	BinPackMemory = cluster.BinPackMemory
	// FirstFit concentrates load on the lowest-index workers — the
	// hotspot-building placement the rebalancer scenarios stress.
	FirstFit = cluster.FirstFit
)

// Migration subsystem (see internal/migrate and the checkpoint/restore
// support in internal/simdocker and internal/cluster): cluster-wide
// elasticity via GE-aware live migration.
type (
	// ClusterPolicy is a cluster-level scheduling strategy attached to
	// the manager alongside per-worker Policies.
	ClusterPolicy = sched.ClusterPolicy
	// Rebalancer is the GE-aware migration policy: it moves the lowest
	// growth-efficiency container off pressured or straggling nodes.
	Rebalancer = migrate.Rebalancer
	// RebalancerConfig tunes the rebalancer's heuristics and cost model.
	RebalancerConfig = migrate.Config
	// MigrationPlan is one decided move (job, source, destination, why).
	MigrationPlan = migrate.Plan
	// MigrationCost prices freeze/transfer/thaw on the sim clock.
	MigrationCost = cluster.MigrationCost
	// MigrationSpec is one migration request for Manager.Migrate.
	MigrationSpec = cluster.MigrationSpec
	// ContainerCheckpoint is a frozen container (identity, progress,
	// memory footprint, GE history) ready to restore on another daemon.
	ContainerCheckpoint = simdocker.Checkpoint
	// Drain schedules rolling maintenance on one worker in a Spec.
	Drain = experiment.Drain
)

// Migration constructors.
var (
	// NewRebalancer builds a rebalancer from a config (fresh instance per
	// run; Spec.ClusterPolicy wants a factory — see RebalancerPolicy).
	NewRebalancer = migrate.New
	// RebalancerPolicy adapts a RebalancerConfig into the factory
	// Spec.ClusterPolicy/Scenario.ClusterPolicy expect.
	RebalancerPolicy = experiment.RebalancerPolicy
	// DefaultMigrationCost is the calibrated freeze/transfer/thaw model.
	DefaultMigrationCost = cluster.DefaultMigrationCost
)

// Observability tiers (see internal/metrics and the package-doc
// "Observability tiers" section).
type (
	// Tier selects metric retention: TierSummary (the zero value,
	// constant-memory summaries only) or TierDense (full raw series).
	Tier = metrics.Tier
	// SeriesSummary is the constant-memory stand-in for a dense Series:
	// Welford moments + streaming quantile sketch + first/last points.
	SeriesSummary = metrics.SeriesSummary
	// CompactSeries is a bounded step-series used for summary-tier growth
	// trajectories — O(DefaultCompactPoints) memory at any run length.
	CompactSeries = metrics.CompactSeries
	// Welford is the numerically stable online moment accumulator
	// (count/mean/variance/min/max in O(1) memory).
	Welford = stats.Welford
	// QuantileSketch is the log-bucketed streaming quantile sketch with a
	// guaranteed relative-error bound.
	QuantileSketch = stats.QuantileSketch
)

// Tier constants and helpers.
const (
	// TierSummary retains only online summaries — the default.
	TierSummary = metrics.TierSummary
	// TierDense additionally retains every raw series point.
	TierDense = metrics.TierDense
	// SketchAccuracy is the relative-error bound of every summary-tier
	// quantile (±1%).
	SketchAccuracy = metrics.SketchAccuracy
	// PostExitSamples caps the per-container sampler tail after exit in
	// both tiers.
	PostExitSamples = metrics.PostExitSamples
)

// ParseTier maps the -trace-level strings ("", "summary", "dense") to a
// Tier, erroring on anything else.
var ParseTier = metrics.ParseTier

// NewQuantileSketch constructs a sketch with relative accuracy alpha.
var NewQuantileSketch = stats.NewQuantileSketch

// Archive is the serializable form of an experiment's traces — schema
// version ArchiveSchemaVersion, carrying per-job summaries in both tiers
// and raw series only when produced by TierDense.
type Archive = metrics.Archive

// ArchiveSummary is one summarized series in an Archive: moments plus
// sketch quantiles, the constant-memory view of a metric.
type ArchiveSummary = metrics.ArchiveSummary

// ArchiveSchemaVersion is the archive schema Export writes and ReadArchive
// requires; pre-v2 archives are rejected with a regeneration hint.
const ArchiveSchemaVersion = metrics.ArchiveSchemaVersion

// ReadArchive parses an archive written by Archive.WriteJSON, rejecting
// wrong schema versions loudly.
var ReadArchive = metrics.ReadArchive

// Pluggable container-runtime layer (see internal/runtime and
// docs/RUNTIME.md): one backend-neutral lifecycle contract behind the
// cluster, the migration subsystem, and the versioned /v1 agent service.
// Four implementations conform — the deterministic simulator, the
// wall-clock in-process node, the remote HTTP client, and cluster
// workers wrapping any of them — all verified by the shared
// runtimetest conformance suite.
type (
	// ContainerRuntime is the pluggable lifecycle contract
	// (launch/stop/lookup/PS, CPU-limit updates, Algorithm 1 stats,
	// capacity/memory aggregates, checkpoint/restore, start/exit hooks).
	ContainerRuntime = rt.Runtime
	// ContainerView is the immutable point-in-time view of one container
	// every runtime reports.
	ContainerView = rt.Container
	// ContainerLaunchSpec describes one container to launch.
	ContainerLaunchSpec = rt.LaunchSpec
	// ContainerState is the coarse lifecycle phase (queued, running,
	// exited).
	ContainerState = rt.State
)

// Runtime sentinel errors: backends wrap these, so errors.Is matches
// across implementations (and across the /v1 wire).
var (
	// ErrRuntimeUnsupported marks operations a backend's semantics
	// forbid (e.g. checkpointing across the agent wire).
	ErrRuntimeUnsupported = rt.ErrUnsupported
	// ErrQueueFull is the agent service's admission backpressure
	// (HTTP 429 on the wire).
	ErrQueueFull = rt.ErrQueueFull
)

// Real-time deployment surface (wall-clock driver over the pure core).
type (
	// RealtimeDriver runs Algorithm 1/2 against wall-clock time.
	RealtimeDriver = realtime.Driver
	// RealtimeRuntime is the container-platform adapter it drives.
	RealtimeRuntime = realtime.Runtime
)

// NewRealtimeDriver constructs a wall-clock FlowCon driver.
var NewRealtimeDriver = realtime.NewDriver

// Figure/table regenerators (one per paper artifact).
var (
	Fig1           = experiment.Fig1
	Fig3           = experiment.Fig3
	Fig4           = experiment.Fig4
	Fig5           = experiment.Fig5
	Fig6           = experiment.Fig6
	FixedPair      = experiment.FixedPair
	Fig9           = experiment.Fig9
	RandomPair     = experiment.RandomPair
	TenJobPair     = experiment.TenJobPair
	FifteenJobPair = experiment.FifteenJobPair
	Table2         = experiment.Table2
	GrowthTrace    = experiment.GrowthTrace
	SeedRandomFive = experiment.SeedRandomFive
	SeedRandomTen  = experiment.SeedRandomTen
	SeedRandom15   = experiment.SeedRandom15
)

// Report renderers.
func ReportSweep(w io.Writer, sw *SettingSweep)             { experiment.ReportSweep(w, sw) }
func ReportSweepResult(w io.Writer, sr *SweepResult)        { experiment.ReportSweepResult(w, sr) }
func ReportTable1(w io.Writer)                              { experiment.ReportTable1(w) }
func ReportCPUTrace(w io.Writer, res *Result, title string) { experiment.ReportCPUTrace(w, res, title) }
func ReportPair(w io.Writer, fc, na *Result, title string)  { experiment.ReportPair(w, fc, na, title) }
func ReportGrowth(w io.Writer, fc, na *Result, job, title string) {
	experiment.ReportGrowth(w, fc, na, job, title)
}
func ReportScenario(w io.Writer, outs []ScenarioOutcome) { experiment.ReportScenario(w, outs) }
func ReportScenarioList(w io.Writer, scens []Scenario)   { experiment.ReportScenarioList(w, scens) }

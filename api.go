// Package repro is the public API of the FlowCon reproduction — elastic
// flow configuration for containerized deep-learning applications (Zheng
// et al., ICPP 2019) rebuilt as a deterministic Go library.
//
// The package re-exports what the runnable programs under examples/ and
// the README use from the internal implementation packages:
//
//   - model profiles and convergence curves (define or pick training jobs),
//   - scheduling policies (FlowCon, the NA baseline, static equal shares,
//     and a SLAQ-like quality-driven baseline),
//   - the experiment runner and the parallel sweep pool,
//   - the scenario registry, and the figure regenerators and report
//     renderers for the paper's evaluation.
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
//	var specs []repro.Spec
//	for _, seed := range []int64{1, 2, 3} {
//	    specs = append(specs, repro.SettingSpecs(
//	        fmt.Sprintf("sensitivity seed=%d", seed), repro.RandomN(10, seed),
//	        []repro.Setting{{Alpha: 0.03, Itval: 20}, {Alpha: 0.10, Itval: 60}, {NA: true}})...)
//	}
//	sr, err := repro.Sweep(ctx, specs, repro.SweepOptions{Parallelism: 8})
//	repro.ReportSweepResult(os.Stdout, sr)
//
// Sweep isolates per-run panics into that run's RunReport.Err and honours
// ctx cancellation. The flowcon-sim command exposes the pool width as
// -parallel N.
//
// Spec.SimShards parallelizes inside one run instead, and Spec.TraceLevel
// selects metric retention (TierDense keeps full series for figures); see
// the README's "Sharded intra-run simulation" and "Observability"
// sections.
//
// See the runnable programs under examples/ for complete scenarios.
package repro

import (
	"repro/internal/cluster"
	"repro/internal/dlmodel"
	"repro/internal/experiment"
	"repro/internal/flowcon"
	"repro/internal/metrics"
	"repro/internal/migrate"
	"repro/internal/workload"
)

// Model profiles and curves (see internal/dlmodel).
type (
	// Profile describes one trainable model: epoch budget, convergence
	// curve, resource footprint.
	Profile = dlmodel.Profile
	// ExpCurve is exponential loss decay.
	ExpCurve = dlmodel.ExpCurve
	// LogisticCurve is S-shaped progress (accuracy-style metrics).
	LogisticCurve = dlmodel.LogisticCurve
)

// Framework and direction constants for custom profiles.
const (
	PyTorch    = dlmodel.PyTorch
	Decreasing = dlmodel.Decreasing
)

// Models from the paper's Table 1 catalog.
var (
	VAEPyTorch      = dlmodel.VAEPyTorch
	MNISTPyTorch    = dlmodel.MNISTPyTorch
	MNISTTensorFlow = dlmodel.MNISTTensorFlow
)

// FlowConConfig holds α, β, the executor interval and back-off knobs.
type FlowConConfig = flowcon.Config

// Workloads (see internal/workload).
type (
	// Submission is one job arrival: name, model profile, time.
	Submission = workload.Submission
	// WorkloadGenerator composes an arrival process with a job mix into
	// seeded schedules.
	WorkloadGenerator = workload.Generator
	// FlashCrowd is a steady trickle of arrivals plus one spike.
	FlashCrowd = workload.FlashCrowd
	// Mix is a weighted distribution over model profiles.
	Mix = workload.Mix
)

// Workload generators for the paper's three scenarios.
var (
	FixedSchedule = workload.FixedSchedule
	RandomFive    = workload.RandomFive
	RandomN       = workload.RandomN
)

// Experiments (see internal/experiment).
type (
	// Spec describes one simulation run.
	Spec = experiment.Spec
	// Result is the outcome: job records, makespan, traces.
	Result = experiment.Result
	// Setting is a FlowCon (α, itval) pair or the NA baseline.
	Setting = experiment.Setting
	// SweepOptions tunes Sweep: the pool width.
	SweepOptions = experiment.SweepOptions
	// Scenario is a named workload family in the scenario registry.
	Scenario = experiment.Scenario
	// Drain schedules rolling maintenance on one worker in a Spec.
	Drain = experiment.Drain
	// RebalancerConfig tunes the GE-aware migration rebalancer
	// (Spec.Rebalance).
	RebalancerConfig = migrate.Config
)

// TierDense retains every raw metric series (Spec.TraceLevel); the zero
// value keeps constant-memory summaries only.
const TierDense = metrics.TierDense

// Runs and sweeps.
var (
	// Run executes a Spec to completion, panicking on an invalid spec.
	Run = experiment.Run
	// RunE is Run with errors instead of panics on invalid specs.
	RunE = experiment.RunE
	// Sweep executes Specs across a bounded worker pool with per-run
	// panic isolation, spec-order results and context cancellation.
	Sweep = experiment.Sweep
	// SettingSpecs expands one workload across policy settings.
	SettingSpecs = experiment.SettingSpecs
)

// Scenario registry (see internal/experiment). RegisterScenario adds
// custom scenarios next to the built-ins; RunScenarios executes
// (scenario, seed) pairs across the sweep pool.
var (
	RegisterScenario = experiment.RegisterScenario
	Scenarios        = experiment.Scenarios
	ScenarioSeeds    = experiment.ScenarioSeeds
	RunScenarios     = experiment.RunScenarios
)

// Policy factories.
var (
	FlowConPolicy     = experiment.FlowConPolicy
	NAPolicy          = experiment.NAPolicy
	StaticEqualPolicy = experiment.StaticEqualPolicy
	SLAQPolicy        = experiment.SLAQPolicy
)

// FirstFit concentrates load on the lowest-index workers — the
// hotspot-building placement the rebalancer scenarios stress.
var FirstFit = cluster.FirstFit

// Figure/table regenerators (one per paper artifact).
var (
	Fig3           = experiment.Fig3
	Fig4           = experiment.Fig4
	Fig5           = experiment.Fig5
	Fig6           = experiment.Fig6
	Fig9           = experiment.Fig9
	RandomPair     = experiment.RandomPair
	TenJobPair     = experiment.TenJobPair
	FifteenJobPair = experiment.FifteenJobPair
	Table2         = experiment.Table2
	SeedRandomFive = experiment.SeedRandomFive
)

// Report renderers.
var (
	ReportSweep       = experiment.ReportSweep
	ReportSweepResult = experiment.ReportSweepResult
	ReportCPUTrace    = experiment.ReportCPUTrace
	ReportPair        = experiment.ReportPair
	ReportGrowth      = experiment.ReportGrowth
	ReportScenario    = experiment.ReportScenario
)

package experiment

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/migrate"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Scenario is a named, registered workload family: a seeded generator
// plus the cluster shape and FlowCon setting it runs under. Scenarios
// turn the repo from a figure regenerator into a stress harness — the
// built-ins cover the arrival patterns a production cluster would see
// (steady Poisson, ON/OFF bursts, diurnal cycles, flash crowds) beyond
// the paper's three evaluation workloads. A Scenario holds only what
// defines the workload family; how one execution runs (engine sharding,
// metric tier, tracing) is an edit of the expanded Spec (RunScenarios).
type Scenario struct {
	// Name is the registry key (flowcon-sim -scenario <name>).
	Name string
	// Description is the one-line summary shown by -scenario-list.
	Description string
	// StreamWorkload generates the seed's arrival schedule as a fresh
	// stream per call. Required, and must be a pure function of the seed:
	// trace recording and the run each pull their own stream and rely on
	// both yielding the same sequence. A generator-backed scenario
	// (workload.Generator.Stream) holds 8 B per arrival and builds each
	// submission on pull; a materialized schedule wraps its slice in
	// workload.SliceStream.
	StreamWorkload func(seed int64) workload.ArrivalStream
	// Heavy marks cluster-scale stress scenarios (the megacluster
	// family) that are far too expensive for registry-wide sweeps: they
	// are excluded from Scenarios ("-scenario all", make determinism)
	// and run only when named explicitly. AllScenarios lists them.
	Heavy bool
	// Workers is the cluster size (default 1).
	Workers int
	// Placement selects workers (nil = cluster.LeastLoaded).
	Placement cluster.Placement
	// PlacementName labels the placement in listings (default
	// "least-loaded").
	PlacementName string
	// Alpha and Itval are the FlowCon setting (defaults 0.03 / 30, the
	// paper's best observed configuration).
	Alpha, Itval float64
	// MaxContainersPerWorker caps per-node admission (0 = unlimited);
	// overflow queues at the manager.
	MaxContainersPerWorker int
	// Horizon overrides the simulated-time safety cap (0 = default).
	Horizon float64
	// Capacity, SamplePeriod and ContentionOverhead override the
	// corresponding Spec knobs (0 = runner default; ContentionOverhead
	// < 0 disables contention, as in Spec). The megacluster family uses
	// them to model beefy multi-core nodes with coarse sampling.
	Capacity           float64
	SamplePeriod       float64
	ContentionOverhead float64
	// Rebalance attaches the GE-aware migration rebalancer (see
	// Spec.Rebalance). Expanded Specs share this pointer, so an edit that
	// reprices it must copy it first.
	Rebalance *migrate.Config
	// Drains schedules rolling maintenance (see Spec.Drains), priced by
	// MigrationCost (zero value = cluster.DefaultMigrationCost()).
	Drains        []Drain
	MigrationCost cluster.MigrationCost
	// Faults attaches the seeded chaos engine (see Spec.Faults). The
	// fault RNG is seeded with the workload seed, so one seed fixes the
	// whole run — schedule and fault trace both.
	Faults *faults.Plan
	// Recovery installs the manager's self-healing layer (see
	// Spec.Recovery).
	Recovery *cluster.RecoveryPolicy
}

// Setting returns the scenario's effective FlowCon setting.
func (s Scenario) Setting() Setting {
	alpha, itval := s.Alpha, s.Itval
	if alpha == 0 {
		alpha = 0.03
	}
	if itval == 0 {
		itval = 30
	}
	return Setting{Alpha: alpha, Itval: itval}
}

// base is the seed-independent part of the scenario's Spec: the fields
// the two share, which Spec.checkShared validates for both.
func (s Scenario) base() Spec {
	return Spec{
		Workers:                s.Workers,
		MaxContainersPerWorker: s.MaxContainersPerWorker,
		Horizon:                s.Horizon,
		Capacity:               s.Capacity,
		SamplePeriod:           s.SamplePeriod,
		ContentionOverhead:     s.ContentionOverhead,
		Drains:                 s.Drains,
		MigrationCost:          s.MigrationCost,
		Faults:                 s.Faults,
		Recovery:               s.Recovery,
		Rebalance:              s.Rebalance,
	}
}

// Spec expands the scenario into one runnable Spec for the seed.
func (s Scenario) Spec(seed int64) Spec {
	setting := s.Setting()
	spec := s.base()
	spec.Name = fmt.Sprintf("%s [seed=%d %s]", s.Name, seed, setting.Label())
	spec.NewPolicy = FlowConPolicy(setting.Alpha, setting.Itval)
	spec.Placement = s.Placement
	spec.FaultSeed = seed
	spec.Arrivals = s.StreamWorkload(seed)
	return spec
}

// sliceWorkload adapts a per-seed materialized schedule generator to
// Scenario.StreamWorkload.
func sliceWorkload(gen func(seed int64) []workload.Submission) func(int64) workload.ArrivalStream {
	return func(seed int64) workload.ArrivalStream { return workload.SliceStream(gen(seed)) }
}

// validate rejects unusable scenario definitions — RegisterScenario is a
// user extension point, so out-of-domain knobs fail here with a named
// field instead of surfacing as a meaningless simulation.
func (s Scenario) validate() error {
	if s.Name == "" {
		return fmt.Errorf("experiment: scenario without name")
	}
	if s.StreamWorkload == nil {
		return fmt.Errorf("experiment: scenario %q without workload generator", s.Name)
	}
	if math.IsNaN(s.Alpha) || s.Alpha < 0 || s.Alpha >= 1 {
		return fmt.Errorf("experiment: scenario %q alpha %g outside [0, 1) (0 = default)", s.Name, s.Alpha)
	}
	if math.IsNaN(s.Itval) || math.IsInf(s.Itval, 0) || s.Itval < 0 {
		return fmt.Errorf("experiment: scenario %q itval %g must be a finite non-negative interval (0 = default)", s.Name, s.Itval)
	}
	return s.base().checkShared("scenario", s.Name)
}

// The scenario registry. Built-ins register at init; callers add custom
// scenarios with RegisterScenario (see the README's worked example).
var (
	scenarioMu  sync.Mutex
	scenarioReg = make(map[string]Scenario)
)

// RegisterScenario adds a scenario to the registry. It rejects invalid
// definitions and duplicate names.
func RegisterScenario(s Scenario) error {
	if err := s.validate(); err != nil {
		return err
	}
	scenarioMu.Lock()
	defer scenarioMu.Unlock()
	if _, dup := scenarioReg[s.Name]; dup {
		return fmt.Errorf("experiment: scenario %q already registered", s.Name)
	}
	scenarioReg[s.Name] = s
	return nil
}

// mustRegisterScenario registers a built-in, panicking on conflicts —
// a broken built-in table is a programming error.
func mustRegisterScenario(s Scenario) {
	if err := RegisterScenario(s); err != nil {
		panic(err.Error())
	}
}

// ScenarioByName looks up a registered scenario.
func ScenarioByName(name string) (Scenario, bool) {
	scenarioMu.Lock()
	defer scenarioMu.Unlock()
	s, ok := scenarioReg[name]
	return s, ok
}

// Scenarios returns the registered sweep-weight scenarios sorted by
// name — the set "-scenario all" and make determinism iterate. Heavy
// scenarios (megacluster family) are excluded; use AllScenarios for
// listings or ScenarioByName to run one explicitly.
func Scenarios() []Scenario {
	all := AllScenarios()
	out := all[:0]
	for _, s := range all {
		if !s.Heavy {
			out = append(out, s)
		}
	}
	return out
}

// AllScenarios returns every registered scenario — heavy included —
// sorted by name, so listings over the registry are deterministic.
func AllScenarios() []Scenario {
	scenarioMu.Lock()
	defer scenarioMu.Unlock()
	out := make([]Scenario, 0, len(scenarioReg))
	for _, s := range scenarioReg {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// ScenarioSeeds returns the default seed set {1..n} used by the CLI.
func ScenarioSeeds(n int) []int64 {
	if n <= 0 {
		panic(fmt.Sprintf("experiment: seed count %d must be positive", n))
	}
	seeds := make([]int64, n)
	for i := range seeds {
		seeds[i] = int64(i + 1)
	}
	return seeds
}

func init() {
	catalog := workload.CatalogMix()

	mustRegisterScenario(Scenario{
		Name:        "fixed",
		Description: "paper §5.3 administrator schedule: VAE@0s, MNIST-PT@40s, MNIST-TF@80s",
		StreamWorkload: func(int64) workload.ArrivalStream {
			return workload.SliceStream(workload.FixedSchedule())
		},
		Alpha: 0.05, Itval: 20,
	})
	mustRegisterScenario(Scenario{
		Name:           "uniform5",
		Description:    "paper §5.4 mix: 5 models at uniform times in 200s",
		StreamWorkload: sliceWorkload(workload.RandomFive),
	})
	// Each process is declared once and feeds both the generator and the
	// -scenario-list description, so the listing can never drift from the
	// rates actually simulated.
	poisson := workload.Poisson{Rate: 0.04, WindowSec: 200, MaxJobs: 20}
	poissonGen := workload.Generator{Process: poisson, Mix: catalog, MinJobs: 2}
	mustRegisterScenario(Scenario{
		Name:           "poisson",
		Description:    "steady production traffic: " + poisson.Describe(),
		StreamWorkload: poissonGen.Stream,
	})
	bursty := workload.OnOff{OnRate: 0.2, OnSec: 20, OffSec: 70, WindowSec: 290, MaxJobs: 24}
	burstyGen := workload.Generator{Process: bursty, Mix: catalog, MinJobs: 2}
	mustRegisterScenario(Scenario{
		Name:           "bursty",
		Description:    "queue-flush bursts on 2 spread workers: " + bursty.Describe(),
		StreamWorkload: burstyGen.Stream,
		Workers:        2,
	})
	diurnal := workload.Diurnal{BaseRate: 0.03, Amplitude: 0.9, PeriodSec: 300, WindowSec: 600, MaxJobs: 30}
	diurnalGen := workload.Generator{Process: diurnal, Mix: catalog, MinJobs: 4}
	mustRegisterScenario(Scenario{
		Name:           "diurnal",
		Description:    "compressed day/night cycle on 4 spread workers: " + diurnal.Describe(),
		StreamWorkload: diurnalGen.Stream,
		Workers:        4,
	})
	flashcrowd := workload.FlashCrowd{BaseRate: 0.01, SpikeAt: 120, SpikeSec: 30, SpikeRate: 0.3,
		WindowSec: 300, MaxJobs: 24}
	flashcrowdGen := workload.Generator{Process: flashcrowd, Mix: catalog, MinJobs: 4}
	mustRegisterScenario(Scenario{
		Name:                   "flashcrowd",
		Description:            "retry-storm spike, 4 consolidated workers with admission cap: " + flashcrowd.Describe(),
		StreamWorkload:         flashcrowdGen.Stream,
		Workers:                4,
		Placement:              cluster.BinPackMemory,
		PlacementName:          "binpack-memory",
		MaxContainersPerWorker: 4,
	})
	// cluster-scale is the benchmark-baseline workload: hundreds of
	// workers and thousands of jobs, steady Poisson traffic with a
	// flash-crowd spike on top (FlashCrowd = Poisson base + superimposed
	// burst). It exists to exercise the simulation hot path at the
	// cluster sizes the ROADMAP's north star targets; `go run ./bench`
	// measures it end to end as its cluster-scale workload.
	clusterScale := workload.FlashCrowd{BaseRate: 3, SpikeAt: 600, SpikeSec: 60, SpikeRate: 12,
		WindowSec: 900, MaxJobs: 5000}
	clusterScaleGen := workload.Generator{Process: clusterScale, Mix: catalog, MinJobs: 256}
	mustRegisterScenario(Scenario{
		Name: "cluster-scale",
		Description: "perf baseline, 256 workers with admission cap: " +
			clusterScale.Describe(),
		StreamWorkload:         clusterScaleGen.Stream,
		Workers:                256,
		MaxContainersPerWorker: 16,
		Horizon:                20000,
	})
	// hotspot reproduces the imbalance the paper's design leaves open: a
	// first-fit manager packs every arrival onto the lowest-index node
	// and never revisits the placement, so one worker runs deep in
	// contention while its neighbors idle. hotspot-rebalance is the same
	// workload and placement with the GE-aware rebalancer attached; the
	// pair is the acceptance experiment for internal/migrate (a test
	// asserts rebalancing improves makespan and 95p completion).
	hotspot := workload.Poisson{Rate: 0.08, WindowSec: 150, MaxJobs: 16}
	hotspotGen := workload.Generator{Process: hotspot, Mix: catalog, MinJobs: 10}
	mustRegisterScenario(Scenario{
		Name:                   "hotspot",
		Description:            "skewed first-fit placement, no rebalancing: " + hotspot.Describe(),
		StreamWorkload:         hotspotGen.Stream,
		Workers:                4,
		Placement:              cluster.FirstFit,
		PlacementName:          "first-fit",
		MaxContainersPerWorker: 8,
	})
	mustRegisterScenario(Scenario{
		Name:                   "hotspot-rebalance",
		Description:            "hotspot workload with the GE-aware migration rebalancer attached",
		StreamWorkload:         hotspotGen.Stream,
		Workers:                4,
		Placement:              cluster.FirstFit,
		PlacementName:          "first-fit",
		MaxContainersPerWorker: 8,
		Rebalance:              &migrate.Config{Interval: 20, MaxMovesPerScan: 2},
	})
	// rolling-drain exercises the maintenance path: each worker is
	// cordoned and live-drained in turn, with checkpointed jobs paying
	// the freeze/transfer/thaw cost and landing on the survivors.
	drainArrivals := workload.Poisson{Rate: 0.05, WindowSec: 120, MaxJobs: 10}
	drainGen := workload.Generator{Process: drainArrivals, Mix: catalog, MinJobs: 6}
	mustRegisterScenario(Scenario{
		Name:           "rolling-drain",
		Description:    "rolling maintenance, 3 workers drained in turn: " + drainArrivals.Describe(),
		StreamWorkload: drainGen.Stream,
		Workers:        3,
		Drains: []Drain{
			{Worker: 0, At: 60, UncordonAt: 160},
			{Worker: 1, At: 160, UncordonAt: 260},
			{Worker: 2, At: 260, UncordonAt: 360},
		},
	})
}

// ScenarioOutcome is one scenario's slice of a scenario sweep: the per-
// seed run reports in seed order.
type ScenarioOutcome struct {
	Scenario Scenario
	Seeds    []int64
	Reports  []RunReport
}

// Results returns the successful per-seed results in seed order.
func (o ScenarioOutcome) Results() []*Result {
	out := make([]*Result, 0, len(o.Reports))
	for _, r := range o.Reports {
		if r.Result != nil {
			out = append(out, r.Result)
		}
	}
	return out
}

// Failed returns how many seeds errored.
func (o ScenarioOutcome) Failed() int {
	n := 0
	for _, r := range o.Reports {
		if r.Err != nil {
			n++
		}
	}
	return n
}

// RunScenarios executes every (scenario, seed) pair across the shared
// sweep pool and regroups the spec-ordered reports per scenario. Results
// are deterministic at any pool width: workload generation is a pure
// function of the seed and each run has its own engine. A non-nil edit
// is applied to each expanded Spec before it runs (flowcon-sim's
// run-shaping flags); it sees the registry's shared pointers (Rebalance,
// Faults, Recovery), so it must copy what it changes behind one. RunE
// validates the edited Spec.
func RunScenarios(ctx context.Context, scens []Scenario, seeds []int64, opts SweepOptions, edit func(*Spec)) ([]ScenarioOutcome, error) {
	if len(scens) == 0 {
		return nil, fmt.Errorf("experiment: no scenarios to run")
	}
	if len(seeds) == 0 {
		return nil, fmt.Errorf("experiment: no seeds to run")
	}
	for _, s := range scens {
		if err := s.validate(); err != nil {
			return nil, err
		}
	}
	specs := make([]Spec, 0, len(scens)*len(seeds))
	for _, s := range scens {
		for _, seed := range seeds {
			spec := s.Spec(seed)
			if edit != nil {
				edit(&spec)
			}
			specs = append(specs, spec)
		}
	}
	sr, err := Sweep(ctx, specs, opts)
	if err != nil {
		return nil, err
	}
	outs := make([]ScenarioOutcome, len(scens))
	for i, s := range scens {
		outs[i] = ScenarioOutcome{
			Scenario: s,
			Seeds:    seeds,
			Reports:  sr.Runs[i*len(seeds) : (i+1)*len(seeds)],
		}
	}
	return outs, nil
}

// geFractions are the makespan fractions at which ReportScenario samples
// the mean growth-efficiency trajectory.
var geFractions = []float64{0.25, 0.50, 0.75}

// scenarioRow aggregates one outcome for the summary table.
type scenarioRow struct {
	jobs      float64   // mean jobs per seed
	makespan  float64   // mean across seeds
	meanCT    float64   // mean completion time, pooled over seeds
	p95CT     float64   // 95th percentile completion time, pooled
	migrated  float64   // mean completed live migrations per seed
	ge        []float64 // mean G at each geFraction
	finished  bool      // every job in every seed finished
	dropped   bool      // some submitted jobs were never placed
	abandoned bool      // some jobs exhausted their retry budget
}

// aggregate computes the row over an outcome's successful results.
func (o ScenarioOutcome) aggregate() (scenarioRow, bool) {
	results := o.Results()
	if len(results) == 0 {
		return scenarioRow{}, false
	}
	row := scenarioRow{finished: true, ge: make([]float64, len(geFractions))}
	var cts []float64
	geSum := make([]float64, len(geFractions))
	geN := make([]int, len(geFractions))
	for _, res := range results {
		// Count what was submitted, not just what was placed — jobs still
		// queued at the horizon must not vanish from the stress report.
		row.jobs += float64(res.Submitted)
		row.makespan += res.Makespan
		row.migrated += float64(res.Migrated)
		if !res.Completed {
			row.finished = false
		}
		if res.Submitted > len(res.Jobs) {
			row.finished = false
			row.dropped = true
		}
		if res.Abandoned > 0 {
			row.abandoned = true
		}
		for _, j := range res.Jobs {
			if j.Finished {
				cts = append(cts, j.CompletionTime())
			}
			for k, f := range geFractions {
				t := f * res.Makespan
				if t < j.StartedAt || (j.Finished && t > j.FinishedAt) {
					continue // job not alive at this point of the run
				}
				// GrowthAt is tier-agnostic: dense series or compact
				// trajectory. ok=false means alive but not yet measured
				// (first sample lands ~itval after start) — reporting a
				// false zero there would drag the average down.
				g, ok := res.Collector.GrowthAt(j.Name, t)
				if !ok {
					continue
				}
				geSum[k] += g
				geN[k]++
			}
		}
	}
	row.jobs /= float64(len(results))
	row.makespan /= float64(len(results))
	row.migrated /= float64(len(results))
	if len(cts) > 0 {
		sort.Float64s(cts)
		sum := 0.0
		for _, v := range cts {
			sum += v
		}
		row.meanCT = sum / float64(len(cts))
		row.p95CT = stats.Quantile(cts, 0.95)
	} else {
		// No job finished in any seed: NaN renders as "-" instead of a
		// fabricated 0.0 completion time.
		row.meanCT = math.NaN()
		row.p95CT = math.NaN()
	}
	for k := range geFractions {
		if geN[k] > 0 {
			row.ge[k] = geSum[k] / float64(geN[k])
		} else {
			// No job was alive at this makespan fraction: NaN marks "no
			// sample" so the report renders "-" instead of a false zero.
			row.ge[k] = math.NaN()
		}
	}
	return row, true
}

// availabilityRow aggregates one outcome's fault/recovery ledgers for the
// availability table: per-seed means of the counters and of the job-level
// MTTR quantiles (quantile sketches do not merge across runs, so the mean
// of per-seed quantiles is the honest pooled figure).
type availabilityRow struct {
	avail     float64 // mean delivered/ideal capacity fraction
	downSec   float64 // mean capacity-weighted worker down-seconds
	crashes   float64
	kills     float64
	degraded  float64
	ckpts     float64 // periodic snapshots taken
	rCkpt     float64 // restarts resumed from a checkpoint
	rScratch  float64 // restarts from scratch
	wasted    float64 // cpu-seconds of training lost to faults
	mttrP50   float64 // NaN when no seed recorded a recovery
	mttrP95   float64
	abandoned float64
	shed      float64
	cordons   float64
}

// aggregateAvailability averages the ledger across the outcome's faulted
// seeds. ok=false when no seed saw fault activity (Result.Availability is
// attached only then), which keeps healthy scenarios out of the table.
func (o ScenarioOutcome) aggregateAvailability() (availabilityRow, bool) {
	var row availabilityRow
	var p50s, p95s []float64
	n := 0
	for _, res := range o.Results() {
		a := res.Availability
		if a == nil {
			continue
		}
		n++
		row.avail += a.Frac()
		row.downSec += a.WorkerDownSec
		row.crashes += float64(a.Crashes)
		row.kills += float64(a.Kills)
		row.degraded += float64(a.Degradations)
		row.ckpts += float64(a.Checkpoints)
		row.rCkpt += float64(a.RestartsFromCheckpoint)
		row.rScratch += float64(a.RestartsFromScratch)
		row.wasted += a.WastedWorkSec
		row.abandoned += float64(res.Abandoned)
		row.shed += float64(a.Shed)
		row.cordons += float64(a.Cordons)
		if p := a.MTTRQuantile(0.50); !math.IsNaN(p) {
			p50s = append(p50s, p)
		}
		if p := a.MTTRQuantile(0.95); !math.IsNaN(p) {
			p95s = append(p95s, p)
		}
	}
	if n == 0 {
		return availabilityRow{}, false
	}
	f := float64(n)
	row.avail /= f
	row.downSec /= f
	row.crashes /= f
	row.kills /= f
	row.degraded /= f
	row.ckpts /= f
	row.rCkpt /= f
	row.rScratch /= f
	row.wasted /= f
	row.abandoned /= f
	row.shed /= f
	row.cordons /= f
	row.mttrP50 = meanOrNaN(p50s)
	row.mttrP95 = meanOrNaN(p95s)
	return row, true
}

// meanOrNaN averages xs, with NaN as the "no sample" marker for empty.
func meanOrNaN(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, v := range xs {
		sum += v
	}
	return sum / float64(len(xs))
}

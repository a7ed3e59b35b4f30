package experiment

import (
	"fmt"

	"repro/internal/workload"
)

// This file defines the production-day scenario family: a diurnal base
// rate with a morning surge and a retry storm, drawn from the
// short-skewed production tenant mix. One light member rides the
// default sweep; the megacluster members scale the same shape to the
// ROADMAP's thousand-worker, million-job north star. Their schedules
// stream: the generator holds 8 B per arrival and builds each submission
// on pull.

// productionDay builds the family's arrival process and generator at a
// given scale. Spike placement is phase-locked to the diurnal cycle
// (one period per window): the morning surge lands on the rising edge
// and the retry storm in the afternoon trough, so the worst instant
// stays near the diurnal crest instead of stacking on top of it —
// that keeps peak demand around cluster capacity and the admission
// queue shallow at every scale.
func productionDay(baseRate, windowSec float64, minJobs, maxJobs int) (workload.ProductionDay, workload.Generator) {
	proc := workload.ProductionDay{
		BaseRate:  baseRate,
		Amplitude: 0.6,
		WindowSec: windowSec,
		Spikes: []workload.Spike{
			{At: 0.18 * windowSec, Sec: 0.012 * windowSec, Rate: 0.45 * baseRate}, // morning surge
			{At: 0.55 * windowSec, Sec: 0.008 * windowSec, Rate: 0.9 * baseRate},  // retry storm
		},
		MaxJobs: maxJobs,
	}
	gen := workload.Generator{Process: proc, Mix: workload.ProductionTenantMix(), MinJobs: minJobs}
	return proc, gen
}

// megaclusterScenario parameterizes the heavy members by worker count
// and base arrival rate. Nodes are 4-core equivalents (Capacity 4,
// contention disabled — co-located containers on a multi-core node do
// not fight over one core) admitting up to 8 containers, and metrics
// sample at a coarse 15s period so collector state, not the sampler,
// dominates memory. Base rate is sized so mean demand sits near half
// of cluster capacity and the diurnal crest just below it.
func megaclusterScenario(name string, workers int, baseRate, windowSec, horizon float64, maxJobs int) Scenario {
	proc, gen := productionDay(baseRate, windowSec, 0, maxJobs)
	return Scenario{
		Name: name,
		Description: fmt.Sprintf("stream-only production day on %d 4-core workers: %s",
			workers, proc.Describe()),
		StreamWorkload:         gen.Stream,
		Heavy:                  true,
		Workers:                workers,
		Capacity:               4,
		MaxContainersPerWorker: 8,
		ContentionOverhead:     -1,
		SamplePeriod:           15,
		Horizon:                horizon,
	}
}

func init() {
	// The light member: same shape, sweep-sized. It keeps the family
	// honest in "-scenario all" and make determinism, where the
	// shard-equivalence property is cheap to check on every run.
	proc, gen := productionDay(0.2, 500, 8, 150)
	mustRegisterScenario(Scenario{
		Name:                   "production-day",
		Description:            "compressed production day on 8 4-core workers: " + proc.Describe(),
		StreamWorkload:         gen.Stream,
		Workers:                8,
		Capacity:               4,
		MaxContainersPerWorker: 8,
	})
	// megacluster is the acceptance run for lazy generation: ~1M jobs
	// over a 10-hour simulated day on 1000 workers. `go run ./bench`
	// measures its smoke sibling; time the full run from outside with
	// `/usr/bin/time -v flowcon-sim -scenario megacluster -seeds 1`.
	mustRegisterScenario(megaclusterScenario("megacluster", 1000, 28, 36000, 45000, 1200000))
	mustRegisterScenario(megaclusterScenario("megacluster-5k", 5000, 140, 7500, 12000, 1300000))
	// megacluster-smoke is the CI-sized slice: same cluster and rates,
	// window cut to ~50k jobs so the streaming hot path runs end to end
	// inside a benchmark-smoke wall-clock budget.
	mustRegisterScenario(megaclusterScenario("megacluster-smoke", 1000, 28, 1800, 6000, 80000))
}

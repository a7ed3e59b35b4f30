package metrics_test

import (
	"fmt"
	"testing"

	"repro/internal/experiment"
	"repro/internal/flowcon"
	"repro/internal/metrics"
	"repro/internal/sched"
)

// TestScenarioSeriesMatchReference runs every registered scenario at
// seeds 1 and 2 in the dense tier at each sample period the experiment
// run matrix watches with (1 s, 15 s and 2 s; seed 1 under -short, and
// only 2 s under -race too),
// with the reference sampler attached to every worker, and requires
// every job's derived CPU and evaluation series to equal the
// reference's bit for bit: chaos (crashes, kills, repairs, degraded
// nodes), migration, drains and checkpoint recovery included. The run
// matrix itself lives in the experiment package's tests, which cannot
// reach this package's test code, so these cells run here.
func TestScenarioSeriesMatchReference(t *testing.T) {
	seeds, periods := []int64{1, 2}, []float64{1, 15, 2}
	if testing.Short() || raceEnabled {
		seeds = seeds[:1]
	}
	if raceEnabled {
		periods = periods[2:]
	}
	for _, sc := range experiment.Scenarios() {
		for _, seed := range seeds {
			for _, period := range periods {
				t.Run(fmt.Sprintf("%s/%d/%gs", sc.Name, seed, period), func(t *testing.T) {
					t.Parallel()
					spec := sc.Spec(seed)
					spec.TraceLevel, spec.SamplePeriod = metrics.TierDense, period
					var ref *metrics.Reference
					inner := spec.NewPolicy
					spec.NewPolicy = func(tr flowcon.Tracer) sched.Policy {
						if ref == nil {
							ref = metrics.NewReference(tr.(*metrics.Collector))
						}
						ref.AttachNew()
						return inner(tr)
					}
					if _, err := experiment.RunE(spec); err != nil {
						t.Fatal(err)
					}
					ref.Check(t)
					if ref.Samples() == 0 {
						t.Fatal("the reference took no samples")
					}
				})
			}
		}
	}
}

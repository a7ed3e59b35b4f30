package metrics_test

import (
	"reflect"
	"testing"

	"repro/internal/experiment"
	"repro/internal/metrics"
	"repro/internal/workload"
)

// TestDenseFixedPairFoldsOnRead runs the Figures 7/8 pair in the dense
// tier: every job's CPUSummary is exactly the summary built eagerly from
// its CPU series' points, read after read.
func TestDenseFixedPairFoldsOnRead(t *testing.T) {
	subs := workload.FixedSchedule()
	for _, spec := range []experiment.Spec{
		{Name: "Fig7 FlowCon 5%,20", NewPolicy: experiment.FlowConPolicy(0.05, 20), Submissions: subs},
		{Name: "Fig8 NA", NewPolicy: experiment.NAPolicy(20), Submissions: subs},
	} {
		spec.TraceLevel = metrics.TierDense
		res, err := experiment.RunE(spec)
		if err != nil {
			t.Fatal(err)
		}
		col := res.Collector
		for _, j := range res.Jobs {
			want := metrics.NewSeriesSummary()
			for _, p := range col.CPUSeries(j.Name).Points() {
				want.Observe(p.T, p.V)
			}
			if want.Count() == 0 {
				t.Fatalf("%s %s: no cpu samples", spec.Name, j.Name)
			}
			for read := 0; read < 2; read++ {
				if got := col.CPUSummary(j.Name); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s %s, read %d: folded summary differs from the eager one", spec.Name, j.Name, read)
				}
			}
		}
	}
}

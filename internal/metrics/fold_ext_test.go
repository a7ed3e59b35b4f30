package metrics_test

import (
	"reflect"
	"testing"

	"repro/internal/experiment"
	"repro/internal/metrics"
	"repro/internal/stats"
	"repro/internal/workload"
)

// TestDenseFixedPairFoldsOnRead runs the Figures 7/8 pair in the dense
// tier: after RunE no summary holds a sample, a read yields exactly the
// summary built eagerly from the same points, and after every job was
// read the archive's run quantiles are those of a sketch built eagerly
// from every job's points.
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
		kinds := []struct {
			name    string
			series  func(string) *metrics.Series
			summary func(string) *metrics.SeriesSummary
		}{
			{"cpu", col.CPUSeries, col.CPUSummary},
			{"eval", col.EvalSeries, col.EvalSummary},
			{"limit", col.LimitSeries, col.LimitSummary},
			{"growth", col.GrowthSeries, col.GrowthSummary},
			{"list", col.ListSeries, col.ListSummary},
		}
		for _, j := range res.Jobs {
			for _, k := range kinds {
				if n := metrics.HeldSummaryCount(col, j.Name, k.name); n != 0 {
					t.Fatalf("%s %s/%s: summary holds %d samples before any read", spec.Name, j.Name, k.name, n)
				}
			}
		}
		folded := 0
		eager := map[string]*stats.QuantileSketch{}
		for _, k := range kinds {
			eager[k.name] = stats.NewQuantileSketch(metrics.SketchAccuracy)
		}
		for _, j := range res.Jobs {
			for _, k := range kinds {
				got := k.summary(j.Name)
				want := metrics.NewSeriesSummary()
				for _, p := range k.series(j.Name).Points() {
					want.Observe(p.T, p.V)
					eager[k.name].Add(p.V)
				}
				if got.Count() == 0 {
					continue
				}
				folded++
				if !reflect.DeepEqual(*got, *want) || got.Moments() != want.Moments() {
					t.Fatalf("%s %s/%s: folded summary differs from the eager one", spec.Name, j.Name, k.name)
				}
				gf, _ := got.First()
				wf, _ := want.First()
				gl, _ := got.Last()
				wl, _ := want.Last()
				if gf != wf || gl != wl {
					t.Fatalf("%s %s/%s: first/last %v %v, eager %v %v", spec.Name, j.Name, k.name, gf, gl, wf, wl)
				}
			}
		}
		if folded == 0 {
			t.Fatalf("%s: no summary had samples", spec.Name)
		}
		quantiles := col.Export().Quantiles
		for _, k := range kinds {
			sk := eager[k.name]
			if sk.Count() == 0 {
				continue
			}
			want := metrics.ArchiveQuantiles{Count: sk.Count(), P50: sk.Quantile(0.5), P95: sk.Quantile(0.95), P99: sk.Quantile(0.99)}
			if got := quantiles[k.name]; got != want {
				t.Fatalf("%s %s: run quantiles %+v, eager %+v", spec.Name, k.name, got, want)
			}
		}
	}
}

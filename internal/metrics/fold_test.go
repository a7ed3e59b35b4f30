package metrics

import (
	"reflect"
	"testing"

	"repro/internal/dlmodel"
	"repro/internal/flowcon"
	"repro/internal/sim"
	"repro/internal/simdocker"
	"repro/internal/stats"
)

// HeldSummaryCount reports how many samples a job's summary of the given
// archive kind ("cpu", "eval", …) holds now, without the fold a read
// performs. It is exported for the tests in package metrics_test.
func HeldSummaryCount(c *Collector, name, kind string) int64 {
	for k, n := range kindNames {
		if n == kind {
			return c.jobs[name].sums[k].Count()
		}
	}
	panic("metrics: unknown series kind " + kind)
}

// sameSketch reports whether two sketches hold the same samples: equal
// counts and an equal answer at every rank. Bucket layout aside (the
// last-hit index depends on arrival order), that is the whole sketch.
func sameSketch(a, b *stats.QuantileSketch) bool {
	n := a.Count()
	if n != b.Count() {
		return false
	}
	for r := int64(0); r < n; r++ {
		q := float64(r) / float64(max(n-1, 1))
		if a.Quantile(q) != b.Quantile(q) {
			return false
		}
	}
	return true
}

// TestDenseSummaryFoldsOnRead: a dense-tier summary is empty until read,
// a read folds every pending point exactly once — also when it comes in
// mid-run and more samples follow — and the result is bit-identical to
// the summary tier's, which observes each sample as it arrives. The same
// holds for the run sketches across run-level reads (Export): a mid-run
// read, more samples and a second read leave the dense tier's sketches
// equal to the summary tier's.
func TestDenseSummaryFoldsOnRead(t *testing.T) {
	build := func(tier Tier) (*Collector, *sim.Engine) {
		e := sim.NewEngine()
		d := simdocker.NewDaemon(e, 1.0)
		d.Pull(simdocker.Image{Ref: "img:1"})
		col := NewCollectorTier(e, 1.0, tier)
		col.AttachWorker("w0", d)
		c, err := d.Run(simdocker.RunSpec{Image: "img:1", Name: "A", Workload: dlmodel.NewJob("A", dlmodel.MNISTTensorFlow())})
		if err != nil {
			t.Fatal(err)
		}
		col.TrackJob("A", "w0", "m", c.ID(), float64(c.StartedAt()))
		var run func()
		run = func() {
			now := float64(e.Now())
			col.RecordRun(flowcon.TraceEntry{At: e.Now(), Containers: []flowcon.TraceContainer{
				{ID: c.ID(), G: now / 1000, GDefined: now > 40, Limit: 0.5 + now/2000, List: flowcon.WatchingList},
			}})
			if c.State() != simdocker.Exited {
				e.After(17, sim.PriorityMetric, "test.run", run)
			}
		}
		e.After(7, sim.PriorityMetric, "test.run", run)
		return col, e
	}
	dense, de := build(TierDense)
	summary, se := build(TierSummary)
	sketchesMatch := func(when string) {
		t.Helper()
		for k, kind := range kindNames {
			if !sameSketch(&dense.sketches[k], &summary.sketches[k]) {
				t.Fatalf("%s, %s: dense run sketch holds %d samples, summary %d, or differs at some rank",
					when, kind, dense.sketches[k].Count(), summary.sketches[k].Count())
			}
		}
	}

	de.Run(100)
	se.Run(100)
	for k, kind := range kindNames {
		if n := HeldSummaryCount(dense, "A", kind); n != 0 {
			t.Fatalf("%s: dense summary holds %d samples before any read", kind, n)
		}
		if n := dense.sketches[k].Count(); n != 0 {
			t.Fatalf("%s: dense run sketch holds %d samples before any read", kind, n)
		}
		if dense.jobs["A"].dense.series[k].Len() == 0 {
			t.Fatalf("%s: no samples by t=100", kind)
		}
	}
	dense.Export()
	sketchesMatch("mid-run export")
	de.Run(200)
	se.Run(200)
	dense.Export()
	dense.Export()
	sketchesMatch("second and third export")
	read := func(when string) {
		for k, kind := range kindNames {
			got, want := dense.summary("A", seriesKind(k)), summary.summary("A", seriesKind(k))
			if n := dense.jobs["A"].dense.series[k].Len(); got.Count() != int64(n) {
				t.Fatalf("%s, %s: summary holds %d samples, series %d", when, kind, got.Count(), n)
			}
			if !reflect.DeepEqual(*got, *want) {
				t.Fatalf("%s, %s: folded summary differs from the observed one:\n%+v\n%+v", when, kind, *got, *want)
			}
		}
	}
	read("mid-run")
	read("mid-run, read again")
	de.Run(600)
	se.Run(600)
	if !dense.AllFinished() {
		t.Fatal("job did not finish")
	}
	read("after the run")
	sketchesMatch("after the run")
}

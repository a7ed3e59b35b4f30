package metrics

import (
	"testing"

	"repro/internal/dlmodel"
	"repro/internal/flowcon"
	"repro/internal/sim"
	"repro/internal/simdocker"
)

// traceEntryAt builds a single-container Algorithm 1 trace entry.
func traceEntryAt(cid string, at, g float64) flowcon.TraceEntry {
	return flowcon.TraceEntry{
		At: sim.Time(at),
		Containers: []flowcon.TraceContainer{
			{ID: cid, G: g, GDefined: true, Limit: 0.5},
		},
	}
}

// runTailScenario runs one short job, then keeps the engine (and the
// dense collector's tick) running long past the job's exit, returning the
// collector. Without the cap the dense CPU series would hold a zero
// sample per period until the horizon.
func runTailScenario(t *testing.T, tier Tier, horizon float64) *Collector {
	t.Helper()
	e := sim.NewEngine()
	d := simdocker.NewDaemon(e, 1.0)
	d.Pull(simdocker.Image{Ref: "img:1"})
	col := NewCollectorTier(e, 1.0, tier)
	col.AttachWorker("w0", d)
	j := dlmodel.NewJob("A", dlmodel.MNISTTensorFlow())
	c, err := d.Run(simdocker.RunSpec{Image: "img:1", Name: "A", Workload: j})
	if err != nil {
		t.Fatal(err)
	}
	col.TrackJob("A", "w0", "m", c.ID(), float64(c.StartedAt()))
	e.Run(sim.Time(horizon))
	if !col.AllFinished() {
		t.Fatal("job did not finish within horizon")
	}
	return col
}

// TestPostExitTailCapDense is the regression test for the CPU series'
// tail cap: after a job exits, at most PostExitSamples further CPU samples
// are recorded, no matter how long the engine keeps running.
func TestPostExitTailCapDense(t *testing.T) {
	const horizon = 500.0
	col := runTailScenario(t, TierDense, horizon)
	r := col.jobs["A"].JobRecord
	cpu := col.CPUSeries("A")
	if cpu.Len() == 0 {
		t.Fatal("no cpu samples")
	}
	lastT := cpu.Points()[cpu.Len()-1].T
	maxT := r.FinishedAt + PostExitSamples*1.0 // period is 1s
	if lastT > maxT+1e-9 {
		t.Fatalf("cpu samples continued to t=%g, cap is %g (exit %g)", lastT, maxT, r.FinishedAt)
	}
	// The horizon is far past the exit; without the cap the tail would
	// reach it. Make sure the scenario actually exercises the gap.
	if horizon < r.FinishedAt*2 {
		t.Fatalf("scenario too short to exercise the tail: exit %g, horizon %g", r.FinishedAt, horizon)
	}
	// The cap is lossless: the final retained sample is already zero.
	if v := cpu.Points()[cpu.Len()-1].V; v != 0 {
		t.Fatalf("final retained sample %g, want the zero window", v)
	}
}

// TestPostExitTailCapSummary: the summary tier has no tail to cap. It has
// no tick and samples nothing, so the collector retains no more at a
// horizon far past the job's exit than it did at the exit.
func TestPostExitTailCapSummary(t *testing.T) {
	col := runTailScenario(t, TierSummary, 100)
	r := col.jobs["A"].JobRecord
	atExit := col.MemoryBytes()
	if col.CPUSummary("A") != nil || col.CPUSeries("A") != nil {
		t.Fatal("summary tier sampled cpu")
	}
	col.engine.Run(500)
	if got := col.MemoryBytes(); got != atExit {
		t.Fatalf("collector grew from %d B to %d B after the exit at %g", atExit, got, r.FinishedAt)
	}
	if len(col.workers) != 0 || len(col.ticks) != 0 {
		t.Fatalf("summary tier holds %d rate logs and %d ticks", len(col.workers), len(col.ticks))
	}
}

// TestTierParity pins the tier-independence invariant: running the same
// simulation under both tiers yields identical job records and makespan —
// the tier changes retention, never behavior. CPU statistics exist only
// in the dense tier, where the folded summary holds every sample.
func TestTierParity(t *testing.T) {
	dense := runTailScenario(t, TierDense, 500)
	summary := runTailScenario(t, TierSummary, 500)
	dj := dense.jobs["A"].JobRecord
	sj := summary.jobs["A"].JobRecord
	if dj != sj {
		t.Fatalf("job records diverged: %+v vs %+v", dj, sj)
	}
	if dense.Makespan() != summary.Makespan() {
		t.Fatalf("makespan diverged: %g vs %g", dense.Makespan(), summary.Makespan())
	}
	if summary.CPUSummary("A") != nil {
		t.Fatal("summary tier answered a cpu summary")
	}
	ds, series := dense.CPUSummary("A"), dense.CPUSeries("A")
	if ds.Count() == 0 || ds.Count() != int64(series.Len()) {
		t.Fatalf("dense cpu summary holds %d samples, series %d", ds.Count(), series.Len())
	}
	// Dense memory strictly dominates summary memory even on this tiny run.
	if dense.MemoryBytes() <= 0 || summary.MemoryBytes() <= 0 {
		t.Fatal("memory estimates not positive")
	}
}

// TestGrowthAtTierParity drives RecordRun directly and checks GrowthAt
// gives identical answers in both tiers, including the not-yet-defined
// window before the first sample.
func TestGrowthAtTierParity(t *testing.T) {
	build := func(tier Tier) *Collector {
		e := sim.NewEngine()
		d := simdocker.NewDaemon(e, 1.0)
		d.Pull(simdocker.Image{Ref: "img:1"})
		col := NewCollectorTier(e, 1.0, tier)
		j := dlmodel.NewJob("x", dlmodel.GRU())
		c, _ := d.Run(simdocker.RunSpec{Image: "img:1", Workload: j})
		col.TrackJob("x", "w", "m", c.ID(), float64(c.StartedAt()))
		for i := 0; i < 50; i++ {
			col.RecordRun(traceEntryAt(c.ID(), float64(10+i*30), float64(i)/50))
		}
		return col
	}
	dense, summary := build(TierDense), build(TierSummary)
	for _, q := range []float64{0, 5, 10, 99.5, 700, 2000} {
		dv, dok := dense.GrowthAt("x", q)
		sv, sok := summary.GrowthAt("x", q)
		if dv != sv || dok != sok {
			t.Fatalf("GrowthAt(%g) diverged: dense %g,%v summary %g,%v", q, dv, dok, sv, sok)
		}
	}
	if _, ok := dense.GrowthAt("ghost", 10); ok {
		t.Fatal("unknown job answered")
	}
	if _, ok := summary.GrowthAt("ghost", 10); ok {
		t.Fatal("unknown job answered")
	}
}

package metrics

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/dlmodel"
	"repro/internal/flowcon"
	"repro/internal/sim"
	"repro/internal/simdocker"
)

func TestSeriesAppendAndAt(t *testing.T) {
	var s Series
	s.Append(0, 1)
	s.Append(10, 2)
	s.Append(10, 3) // same timestamp allowed
	s.Append(20, 4)
	if s.Len() != 4 {
		t.Fatalf("Len = %d", s.Len())
	}
	if got := s.At(-1); got != 0 {
		t.Fatalf("At(-1) = %v", got)
	}
	if got := s.At(5); got != 1 {
		t.Fatalf("At(5) = %v", got)
	}
	if got := s.At(10); got != 3 {
		t.Fatalf("At(10) = %v (last value at tie)", got)
	}
	if got := s.At(100); got != 4 {
		t.Fatalf("At(100) = %v", got)
	}
}

func TestSeriesRejectsBackwardTime(t *testing.T) {
	var s Series
	s.Append(10, 1)
	defer func() {
		if recover() == nil {
			t.Error("backward timestamp did not panic")
		}
	}()
	s.Append(5, 2)
}

// Property: At is right-continuous step interpolation — for any query the
// returned value equals the value of the last point at or before it.
func TestSeriesAtProperty(t *testing.T) {
	f := func(raw []float64, q float64) bool {
		var s Series
		tNow := 0.0
		for i, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
			tNow += math.Abs(v) + 0.1
			s.Append(tNow, float64(i))
		}
		if math.IsNaN(q) || math.IsInf(q, 0) {
			return true
		}
		got := s.At(math.Abs(q))
		want := 0.0
		pts := s.Points()
		for i := range raw {
			if pts[i].T <= math.Abs(q) {
				want = float64(i)
			}
		}
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// integration: collector attached to a live daemon records lifecycle, CPU
// and completion metrics.
func TestCollectorEndToEnd(t *testing.T) {
	e := sim.NewEngine()
	d := simdocker.NewDaemon(e, 1.0)
	d.Pull(simdocker.Image{Ref: "img:1"})
	col := NewCollectorTier(e, 1.0, TierDense)
	col.AttachWorker("w0", d)

	jobA := dlmodel.NewJob("A", dlmodel.MNISTTensorFlow())
	cA, err := d.Run(simdocker.RunSpec{Image: "img:1", Name: "A", Workload: jobA})
	if err != nil {
		t.Fatal(err)
	}
	col.TrackJob("A", "w0", "MNIST (Tensorflow)", cA.ID(), float64(cA.StartedAt()))

	e.At(10, sim.PriorityState, "launch-b", func() {
		jobB := dlmodel.NewJob("B", dlmodel.GRU())
		cB, err := d.Run(simdocker.RunSpec{Image: "img:1", Name: "B", Workload: jobB})
		if err != nil {
			t.Error(err)
			return
		}
		col.TrackJob("B", "w0", "RNN-GRU (Tensorflow)", cB.ID(), float64(cB.StartedAt()))
	})
	stop := func(c *simdocker.Container) {
		if col.AllFinished() {
			e.Stop()
		}
	}
	d.OnExit(stop)
	e.Run(10000)

	if !col.AllFinished() {
		t.Fatal("jobs not finished")
	}
	jobs := col.Jobs()
	if len(jobs) != 2 || jobs[0].Name != "A" || jobs[1].Name != "B" {
		t.Fatalf("Jobs = %+v", jobs)
	}
	a := col.jobs["A"].JobRecord
	if !a.Finished || a.CompletionTime() <= 0 {
		t.Fatalf("job A record %+v", a)
	}
	if col.Makespan() <= 0 {
		t.Fatal("makespan not recorded")
	}
	// CPU trace: A alone at 1.0 for the first 10s.
	cpu := col.CPUSeries("A")
	if cpu.Len() == 0 {
		t.Fatal("no CPU samples")
	}
	if got := cpu.At(5); math.Abs(got-1.0) > 1e-9 {
		t.Fatalf("A's usage at t=5 = %v, want 1.0", got)
	}
	// Eval trace decreases (loss model).
	ev := col.EvalSeries("A").Points()
	if len(ev) < 2 || ev[len(ev)-1].V >= ev[0].V {
		t.Fatalf("eval trace not decreasing: %v ... %v", ev[0], ev[len(ev)-1])
	}
	// Overlap: A ran [0,~37], B [10,~?]; overlap begins at 10.
	ov := col.Overlap("A", "B")
	if ov <= 0 {
		t.Fatalf("overlap = %v", ov)
	}
}

func TestCollectorRetrackRebinds(t *testing.T) {
	e := sim.NewEngine()
	d := simdocker.NewDaemon(e, 1.0)
	d.Pull(simdocker.Image{Ref: "img:1"})
	col := NewCollector(e, 1.0)
	j := dlmodel.NewJob("x", dlmodel.GRU())
	c1, _ := d.Run(simdocker.RunSpec{Image: "img:1", Name: "x1", Workload: j})
	col.TrackJob("x", "w", "m", c1.ID(), float64(c1.StartedAt()))

	// Simulate a failure-kill and a re-placement onto a new container.
	if err := d.Stop(c1.ID()); err != nil {
		t.Fatal(err)
	}
	col.JobExited(c1) // workload not done -> record stays open
	r := col.jobs["x"].JobRecord
	if r.Finished {
		t.Fatal("killed container counted as completion")
	}
	j2 := dlmodel.NewJob("x", dlmodel.GRU())
	c2, _ := d.Run(simdocker.RunSpec{Image: "img:1", Name: "x2", Workload: j2})
	col.TrackJob("x", "w2", "m", c2.ID(), float64(c2.StartedAt()))
	r = col.jobs["x"].JobRecord
	if r.ContainerID != c2.ID() || r.Restarts != 1 || r.Worker != "w2" {
		t.Fatalf("rebind failed: %+v", r)
	}
	// Completion of the replacement closes the record.
	e.RunAll()
	col.JobExited(c2)
	r = col.jobs["x"].JobRecord
	if !r.Finished {
		t.Fatal("replacement completion not recorded")
	}
}

func TestCollectorTracksMigrationsSeparately(t *testing.T) {
	e := sim.NewEngine()
	d := simdocker.NewDaemon(e, 1.0)
	d.Pull(simdocker.Image{Ref: "img:1"})
	col := NewCollector(e, 1.0)
	j := dlmodel.NewJob("x", dlmodel.GRU())
	c1, _ := d.Run(simdocker.RunSpec{Image: "img:1", Name: "x1", Workload: j})
	col.TrackJob("x", "w", "m", c1.ID(), float64(c1.StartedAt()))

	// A live-migration thaw re-binds without counting a restart.
	cp, err := d.Checkpoint(c1.ID())
	if err != nil {
		t.Fatal(err)
	}
	c2, err := d.Restore(cp)
	if err != nil {
		t.Fatal(err)
	}
	col.TrackJobMigrated("x", "w2", "m", c2.ID(), float64(c2.StartedAt()))
	r := col.jobs["x"].JobRecord
	if r.ContainerID != c2.ID() || r.Worker != "w2" {
		t.Fatalf("migration rebind failed: %+v", r)
	}
	if r.Migrations != 1 || r.Restarts != 0 {
		t.Fatalf("Migrations=%d Restarts=%d, want 1/0", r.Migrations, r.Restarts)
	}
	// A never-tracked job falls through to a fresh record.
	j2 := dlmodel.NewJob("y", dlmodel.GRU())
	c3, _ := d.Run(simdocker.RunSpec{Image: "img:1", Name: "y1", Workload: j2})
	col.TrackJobMigrated("y", "w", "m", c3.ID(), float64(c3.StartedAt()))
	if j := col.jobs["y"]; j == nil || j.Migrations != 0 {
		t.Fatalf("fallback tracking failed: %+v", j)
	}
}

func TestCollectorRecordRun(t *testing.T) {
	e := sim.NewEngine()
	d := simdocker.NewDaemon(e, 1.0)
	d.Pull(simdocker.Image{Ref: "img:1"})
	col := NewCollectorTier(e, 1.0, TierDense)
	j := dlmodel.NewJob("x", dlmodel.GRU())
	c, _ := d.Run(simdocker.RunSpec{Image: "img:1", Workload: j})
	col.TrackJob("x", "w", "m", c.ID(), float64(c.StartedAt()))

	col.RecordRun(flowcon.TraceEntry{
		At: 5,
		Containers: []flowcon.TraceContainer{
			{ID: c.ID(), G: 0.5, GDefined: true, List: flowcon.NewList, Limit: 0.9},
			{ID: "unknown", G: 0.1, GDefined: true},
		},
	})
	if col.AlgorithmRuns() != 1 {
		t.Fatalf("AlgorithmRuns = %d", col.AlgorithmRuns())
	}
	if col.GrowthSeries("x").Len() != 1 {
		t.Fatal("growth not recorded")
	}
	if col.LimitSeries("x").At(5) != 0.9 {
		t.Fatal("limit not recorded")
	}
	if col.jobs["x"].dense.series[kindList].At(5) != float64(flowcon.NewList) {
		t.Fatal("list not recorded")
	}
}

func TestCollectorOverlapEdgeCases(t *testing.T) {
	e := sim.NewEngine()
	col := NewCollector(e, 1.0)
	if col.Overlap("nope") != 0 {
		t.Fatal("overlap of unknown job should be 0")
	}
	if col.AllFinished() {
		t.Fatal("empty collector reports all finished")
	}
	if col.Makespan() != 0 {
		t.Fatal("empty makespan nonzero")
	}
}

// TestNewCollectorValidation: a sampling period that is not finite and
// positive fails at construction, not deep in the sketch (NaN) or as a
// silent run with no samples (+Inf).
func TestNewCollectorValidation(t *testing.T) {
	for _, period := range []float64{0, -1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		t.Run(fmt.Sprint(period), func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("period %g did not panic", period)
				}
			}()
			NewCollectorTier(sim.NewEngine(), period, TierSummary)
		})
	}
}

package metrics

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/dlmodel"
	"repro/internal/sim"
	"repro/internal/simdocker"
)

// endlessPool starts n tracked jobs whose budgets no test exhausts, so the
// node's running set stays pinned at n. prefix namespaces the node's
// container ids and job names (prefix+"J0", prefix+"J1", …) when several
// nodes share a collector.
func endlessPool(tb testing.TB, col *Collector, e *sim.Engine, prefix string, n int) *simdocker.Daemon {
	tb.Helper()
	d := simdocker.NewDaemon(e, 1.0)
	d.SetIDPrefix(prefix)
	d.Pull(simdocker.Image{Ref: "img:1"})
	catalog := dlmodel.Catalog()
	for i := 0; i < n; i++ {
		p := catalog[i%len(catalog)]
		p.TotalWork = 1e15
		name := fmt.Sprintf("%sJ%d", prefix, i)
		c, err := d.Run(simdocker.RunSpec{Image: "img:1", Name: name, Workload: dlmodel.NewJob(name, p)})
		if err != nil {
			tb.Fatal(err)
		}
		col.TrackJob(name, "w0", p.Key(), c.ID(), float64(c.StartedAt()))
	}
	return d
}

// attachWorkers attaches w endless workers of n containers each to col.
func attachWorkers(tb testing.TB, col *Collector, e *sim.Engine, w, n int) {
	tb.Helper()
	for i := 0; i < w; i++ {
		prefix := fmt.Sprintf("w%d.", i)
		col.AttachWorker(prefix, endlessPool(tb, col, e, prefix, n))
	}
}

// TestOneSampleEventPerPeriod pins the dense collector's event cost:
// however many workers are attached, a period executes exactly one
// metrics.sample event, and it samples every container of every worker.
func TestOneSampleEventPerPeriod(t *testing.T) {
	const n, periods = 4, 10
	for _, w := range []int{1, 16} {
		t.Run(fmt.Sprint(w), func(t *testing.T) {
			e := sim.NewEngine()
			col := NewCollectorTier(e, 1.0, TierDense)
			attachWorkers(t, col, e, w, n)
			before := e.Executed()
			e.Run(periods)
			if got := e.Executed() - before; got != periods {
				t.Fatalf("%d workers: %d events in %d periods, want one per period", w, got, periods)
			}
			for i := 0; i < w; i++ {
				for j := 0; j < n; j++ {
					name := fmt.Sprintf("w%d.J%d", i, j)
					if got := col.CPUSeries(name).Len(); got != periods {
						t.Fatalf("%s: %d cpu samples after %d periods", name, got, periods)
					}
				}
			}
		})
	}
}

// TestSummaryTierSchedulesNothing: the summary collector has no tick.
// Attaching workers whose containers run for the whole horizon queues no
// event, so the engine executes none.
func TestSummaryTierSchedulesNothing(t *testing.T) {
	e := sim.NewEngine()
	col := NewCollector(e, 1.0)
	attachWorkers(t, col, e, 16, 4)
	if got := e.Run(10); got != 0 {
		t.Fatalf("summary collector ran %d events in 10 periods, want none", got)
	}
}

// TestLateAttachJoinsCollectorPhase: a worker attached between ticks is
// sampled at the collector's instants, not on a phase of its own, and its
// first CPU sample covers only the time from attach to the next tick.
func TestLateAttachJoinsCollectorPhase(t *testing.T) {
	const n = 4
	e := sim.NewEngine()
	col := NewCollectorTier(e, 1.0, TierDense)
	attachWorkers(t, col, e, 1, n)
	e.Run(0.5)
	late := endlessPool(t, col, e, "late.", n)
	col.AttachWorker("late.", late)
	e.Run(3)
	pts := col.CPUSeries("late.J0").Points()
	if len(pts) != 3 {
		t.Fatalf("late worker: %d cpu samples by t=3, want 3 (t=1,2,3): %+v", len(pts), pts)
	}
	for i, p := range pts {
		if p.T != float64(i+1) {
			t.Fatalf("late sample %d at t=%g, want the collector's tick %d", i, p.T, i+1)
		}
		// Each container holds 1/n of the node. A first window measured
		// over the whole period instead of the half since attach would
		// read half that.
		if math.Abs(p.V-1.0/n) > 1e-9 {
			t.Fatalf("late sample %d = %g, want %g", i, p.V, 1.0/n)
		}
	}
}

// TestAttachWorkerSamplesRunningContainers: the bench drives (and any
// late observer) attach after launching, so containers already in the
// pool must be sampled, not only the ones started afterwards.
func TestAttachWorkerSamplesRunningContainers(t *testing.T) {
	const n, passes = 3, 10
	e := sim.NewEngine()
	col := NewCollectorTier(e, 1.0, TierDense)
	d := endlessPool(t, col, e, "", n)
	col.AttachWorker("w0", d)
	e.Run(passes)
	for i := 0; i < n; i++ {
		s := col.CPUSummary(fmt.Sprintf("J%d", i))
		if s.Count() != passes {
			t.Fatalf("J%d: %d cpu samples after %d passes", i, s.Count(), passes)
		}
		if m := s.moments; math.Abs(m.Mean()-1.0/n) > 1e-9 {
			t.Fatalf("J%d: mean usage %g, want %g", i, m.Mean(), 1.0/n)
		}
	}
}

// TestSamplerStateBoundedAcrossCheckpoints is the regression test for the
// per-checkpoint leak: Daemon.Checkpoint removes the frozen container
// from the pool before any tick sees it exited, and the old id-keyed
// sampler maps kept one entry per snapshot forever. The rate log grows
// by a fixed number of records per checkpoint→restore cycle (the
// freeze's exit and removal, the restore's start), whatever the series
// derived from it hold, and those equal the reference sampler's.
func TestSamplerStateBoundedAcrossCheckpoints(t *testing.T) {
	const cycles = 50
	e := sim.NewEngine()
	d := simdocker.NewDaemon(e, 1.0)
	d.Pull(simdocker.Image{Ref: "img:1"})
	col := NewCollectorTier(e, 1.0, TierDense)
	ref := newRefCollector(col)
	col.AttachWorker("w0", d)
	ref.attach(d)
	p := dlmodel.MNISTTensorFlow()
	p.TotalWork = 1e15
	c, err := d.Run(simdocker.RunSpec{Image: "img:1", Name: "A", Workload: dlmodel.NewJob("A", p)})
	if err != nil {
		t.Fatal(err)
	}
	col.TrackJob("A", "w0", p.Key(), c.ID(), 0)
	for i := 0; i < cycles; i++ {
		// Freeze between ticks, at a non-sample instant.
		e.Run(e.Now() + 0.5)
		cp, err := d.Checkpoint(c.ID())
		if err != nil {
			t.Fatal(err)
		}
		if c, err = d.Restore(cp); err != nil {
			t.Fatal(err)
		}
		col.TrackJobCheckpointed("A", "w0", p.Key(), c.ID(), float64(c.StartedAt()))
		e.Run(e.Now() + 0.5)
	}
	if n := len(col.workers[0].recs); n > 3*cycles+1 {
		t.Fatalf("rate log holds %d records after %d cycles, want at most %d", n, cycles, 3*cycles+1)
	}
	rec := col.jobs["A"].JobRecord
	if rec.Checkpoints != cycles {
		t.Fatalf("checkpoints = %d, want %d", rec.Checkpoints, cycles)
	}
	// Every tick found the job bound to a live container, so every tick
	// sampled it — but each sample covers only the half window since the
	// restore: the frozen container's last partial window is dropped
	// with it (see replay), as it always has been.
	cpu := col.CPUSummary("A")
	if cpu.Count() != cycles {
		t.Fatalf("cpu samples = %d, want one per tick (%d)", cpu.Count(), cycles)
	}
	if m := cpu.moments; math.Abs(m.Mean()-0.5) > 1e-9 {
		t.Fatalf("mean usage %g, want 0.5 (post-restore half windows only)", m.Mean())
	}
	ref.check(t)
}

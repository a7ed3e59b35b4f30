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

// TestOneSampleEventPerPeriod pins the collector's event cost: however
// many workers are attached, a period executes exactly one metrics.sample
// event, and that event samples every container of every worker.
func TestOneSampleEventPerPeriod(t *testing.T) {
	const n, periods = 4, 10
	for _, w := range []int{1, 16} {
		t.Run(fmt.Sprint(w), func(t *testing.T) {
			e := sim.NewEngine()
			col := NewCollector(e, 1.0)
			attachWorkers(t, col, e, w, n)
			before := e.Executed()
			e.Run(periods)
			if got := e.Executed() - before; got != periods {
				t.Fatalf("%d workers: %d events in %d periods, want one per period", w, got, periods)
			}
			for i := 0; i < w; i++ {
				for j := 0; j < n; j++ {
					name := fmt.Sprintf("w%d.J%d", i, j)
					if got := col.CPUSummary(name).Count(); got != periods {
						t.Fatalf("%s: %d cpu samples after %d periods", name, got, periods)
					}
				}
			}
		})
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

// TestSampleTickAllocs pins one whole collector tick — every attached
// worker's pass plus rescheduling — at one allocation: the next period's
// event.
func TestSampleTickAllocs(t *testing.T) {
	e := sim.NewEngine()
	col := NewCollector(e, 1.0)
	attachWorkers(t, col, e, 8, 8)
	tick := func() { e.Run(e.Now() + 1) }
	// Warm the sketch buckets each job keeps landing in (see
	// TestSamplerPassAllocs).
	for i := 0; i < 200; i++ {
		tick()
	}
	if allocs := testing.AllocsPerRun(100, tick); allocs > 1 {
		t.Fatalf("steady-state collector tick allocates %.1f per run, want at most 1", allocs)
	}
	if got := col.CPUSummary("w7.J7").Count(); got < 300 {
		t.Fatalf("ticks recorded %d samples: the guard measured nothing", got)
	}
}

// TestAttachWorkerSamplesRunningContainers: the bench drives (and any
// late observer) attach after launching, so containers already in the
// pool must be sampled, not only the ones started afterwards.
func TestAttachWorkerSamplesRunningContainers(t *testing.T) {
	const n, passes = 3, 10
	e := sim.NewEngine()
	col := NewCollector(e, 1.0)
	d := endlessPool(t, col, e, "", n)
	col.AttachWorker("w0", d)
	e.Run(passes)
	for i := 0; i < n; i++ {
		s := col.CPUSummary(fmt.Sprintf("J%d", i))
		if s.Count() != passes {
			t.Fatalf("J%d: %d cpu samples after %d passes", i, s.Count(), passes)
		}
		if m := s.Moments(); math.Abs(m.Mean()-1.0/n) > 1e-9 {
			t.Fatalf("J%d: mean usage %g, want %g", i, m.Mean(), 1.0/n)
		}
	}
}

// TestSamplerStateBoundedAcrossCheckpoints is the regression test for the
// per-checkpoint leak: Daemon.Checkpoint removes the frozen container
// from the pool before the sampler ever sees it exited, and the old
// id-keyed sampler maps kept one entry per snapshot forever. After any
// number of checkpoint→restore cycles the sampler holds O(running) slots.
func TestSamplerStateBoundedAcrossCheckpoints(t *testing.T) {
	const cycles = 50
	e := sim.NewEngine()
	d := simdocker.NewDaemon(e, 1.0)
	d.Pull(simdocker.Image{Ref: "img:1"})
	col := NewCollector(e, 1.0)
	s := col.newSampler(d)
	p := dlmodel.MNISTTensorFlow()
	p.TotalWork = 1e15
	c, err := d.Run(simdocker.RunSpec{Image: "img:1", Name: "A", Workload: dlmodel.NewJob("A", p)})
	if err != nil {
		t.Fatal(err)
	}
	col.TrackJob("A", "w0", p.Key(), c.ID(), 0)
	for i := 0; i < cycles; i++ {
		// Freeze between passes, at a non-sample instant.
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
		s.pass()
		if len(s.live) != 1 {
			t.Fatalf("cycle %d: sampler holds %d slots for 1 running container", i, len(s.live))
		}
	}
	rec, _ := col.Job("A")
	if rec.Checkpoints != cycles {
		t.Fatalf("checkpoints = %d, want %d", rec.Checkpoints, cycles)
	}
	// Every pass found the job bound to a live container, so every pass
	// sampled it — but each sample covers only the half window since the
	// restore: the frozen container's last partial window is dropped with
	// its slot (see sampler.sample), as it always has been.
	cpu := col.CPUSummary("A")
	if cpu.Count() != cycles {
		t.Fatalf("cpu samples = %d, want one per pass (%d)", cpu.Count(), cycles)
	}
	if m := cpu.Moments(); math.Abs(m.Mean()-0.5) > 1e-9 {
		t.Fatalf("mean usage %g, want 0.5 (post-restore half windows only)", m.Mean())
	}
}

// TestSamplerPassAllocs pins one whole steady-state sampler pass — settle,
// slot walk, usage read, both observations per container — at zero
// allocations in the summary tier.
func TestSamplerPassAllocs(t *testing.T) {
	e := sim.NewEngine()
	col := NewCollector(e, 1.0)
	d := endlessPool(t, col, e, "", 8)
	s := col.newSampler(d)
	step := func() {
		e.Run(e.Now() + 1)
		s.pass()
	}
	// Warm: evaluation values drift, so let each job touch the sketch
	// buckets it will keep landing in.
	for i := 0; i < 200; i++ {
		step()
	}
	if allocs := testing.AllocsPerRun(100, step); allocs != 0 {
		t.Fatalf("steady-state sampler pass allocates %.1f per run, want 0", allocs)
	}
	if got := col.CPUSummary("J0").Count(); got < 300 {
		t.Fatalf("passes recorded %d samples: the guard measured nothing", got)
	}
}

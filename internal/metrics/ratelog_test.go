package metrics

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/dlmodel"
	"repro/internal/runtime"
	"repro/internal/sim"
	"repro/internal/simdocker"
)

// rig is a dense collector with the reference sampler attached to the
// same workers.
type rig struct {
	e   *sim.Engine
	col *Collector
	ref *refCollector
}

func newRig(period float64) *rig {
	e := sim.NewEngine()
	col := NewCollectorTier(e, period, TierDense)
	return &rig{e: e, col: col, ref: newRefCollector(col)}
}

// worker makes a daemon whose container ids start with prefix and
// attaches it to both samplers.
func (r *rig) worker(prefix string) *simdocker.Daemon {
	d := simdocker.NewDaemon(r.e, 1.0)
	d.SetIDPrefix(prefix)
	d.SetContentionOverhead(0.05)
	r.col.AttachWorker(prefix, d)
	r.ref.attach(d)
	return d
}

// launch starts a tracked job named name with the given total work on d
// (re-tracking it if the name is known, as a failure re-placement does).
func (r *rig) launch(t *testing.T, d *simdocker.Daemon, name string, work float64) *simdocker.Container {
	t.Helper()
	p := dlmodel.MNISTTensorFlow()
	p.TotalWork = work
	c, err := d.Run(simdocker.RunSpec{Name: name, Workload: dlmodel.NewJob(name, p)})
	if err != nil {
		t.Fatal(err)
	}
	r.col.TrackJob(name, "w", p.Key(), c.ID(), float64(c.StartedAt()))
	return c
}

// at queues fn at time t with priority prio.
func (r *rig) at(t float64, prio sim.Priority, fn func()) {
	r.e.At(sim.Time(t), prio, "test.op", fn)
}

// TestExitAtTickInstant: a job that completes exactly at a tick instant
// exits before the tick (completions are PriorityState). Of two
// containers stopped by PriorityMetric events at a tick instant, the one
// queued before the tick was armed exits before it, and the one queued
// after exits after it. All derive what the reference read.
func TestExitAtTickInstant(t *testing.T) {
	r := newRig(1)
	d := r.worker("w0.")
	r.launch(t, d, "exact", 3) // alone until t=2, then shares: finishes off-grid
	lone := r.worker("w1.")
	c := r.launch(t, lone, "lone", 5)
	stop := func(name string) {
		c, err := d.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Stop(c.ID()); err != nil {
			t.Fatal(err)
		}
	}
	r.at(2, sim.PriorityState, func() {
		r.launch(t, d, "early", 1e9)
		r.launch(t, d, "late", 1e9)
	})
	// Queued now, ahead of the tick at 3, which the tick at 2 arms.
	r.at(3, sim.PriorityMetric, func() { stop("early") })
	// Queued at 2.5, behind it.
	r.at(2.5, sim.PriorityState, func() { r.at(3, sim.PriorityMetric, func() { stop("late") }) })
	r.e.Run(12)
	if fin := r.col.jobs["lone"].FinishedAt; fin != 5 || c.State() != runtime.Exited {
		t.Fatalf("lone job finished at %g, want the tick instant 5", fin)
	}
	r.ref.check(t)
	// The tick at 5 saw the exit: the lone job's last samples are the
	// window ending at its finish and the zero window after it.
	pts := r.col.CPUSeries("lone").Points()
	if n := len(pts); n != 6 || pts[4].T != 5 || pts[5].V != 0 {
		t.Fatalf("lone cpu series %v, want samples at 1..6 ending in a zero window", pts)
	}
	// The tick at 3 read "early" exited and "late" running, so the tail
	// cap ends late's samples a tick later.
	for name, want := range map[string]int{"early": 3, "late": 4} {
		if got := r.col.EvalSeries(name).Len(); got != want {
			t.Errorf("%s: %d eval samples, want %d", name, got, want)
		}
	}
}

// TestLateAttachMatchesReference: a worker attached between ticks, with
// containers already running (and one exited) on it, derives the
// reference's partial first window and everything after.
func TestLateAttachMatchesReference(t *testing.T) {
	r := newRig(1)
	d0 := r.worker("w0.")
	r.launch(t, d0, "a", 1e9)
	r.e.Run(1.5)
	d1 := simdocker.NewDaemon(r.e, 1.0)
	d1.SetIDPrefix("w1.")
	r.launch(t, d1, "short", 0.2)
	r.launch(t, d1, "b", 1e9)
	r.e.Run(2.5)
	r.col.AttachWorker("w1.", d1)
	r.ref.attach(d1)
	r.launch(t, d1, "c", 1e9)
	r.e.Run(8)
	r.ref.check(t)
	if got := r.col.CPUSeries("b").Points(); len(got) == 0 || got[0].T != 3 {
		t.Fatalf("late worker's first sample %v, want the tick at 3", got)
	}
}

// TestCheckpointFreezeMatchesReference: freezes between ticks and at a
// tick instant (before and after the tick), restores onto another worker
// after a gap, and a freeze whose snapshot never comes back, all derive
// what the reference read: a frozen container's last partial window
// goes unsampled.
func TestCheckpointFreezeMatchesReference(t *testing.T) {
	r := newRig(1)
	d0, d1 := r.worker("w0."), r.worker("w1.")
	r.launch(t, d0, "a", 1e9)
	r.launch(t, d0, "b", 1e9)
	r.launch(t, d1, "c", 1e9)
	move := func(name string, from, to *simdocker.Daemon, at, gap float64, prio sim.Priority) {
		r.at(at, prio, func() {
			c, err := from.Lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			cp, err := from.Checkpoint(c.ID())
			if err != nil {
				t.Fatal(err)
			}
			if to == nil {
				return
			}
			r.at(at+gap, sim.PriorityState, func() {
				nc, err := to.Restore(cp)
				if err != nil {
					t.Fatal(err)
				}
				r.col.TrackJobCheckpointed(name, "w", "m", nc.ID(), float64(nc.StartedAt()))
			})
		})
	}
	move("a", d0, d1, 2.5, 1.7, sim.PriorityState)
	move("b", d0, d0, 4, 0, sim.PriorityState) // at a tick instant, before it
	r.e.Run(5.5)
	move("b", d0, d1, 6, 2, sim.PriorityMetric) // queued behind the tick at 6
	move("c", d1, nil, 7.25, 0, sim.PriorityState)
	r.e.Run(14)
	r.ref.check(t)
	if n := r.ref.samples(); n < 30 {
		t.Fatalf("reference took %d samples: the test measured little", n)
	}
}

// TestRebindAfterWorkerFailure: a worker "fails" (every container
// stopped, its jobs left open), the husks keep yielding samples until
// the tail cap, the jobs relaunch from scratch on another worker and are
// rebound, and a repair removes the husks.
func TestRebindAfterWorkerFailure(t *testing.T) {
	r := newRig(1)
	d0, d1 := r.worker("w0."), r.worker("w1.")
	r.launch(t, d0, "a", 1e9)
	r.launch(t, d0, "b", 1e9)
	r.launch(t, d1, "c", 1e9)
	r.at(3.5, sim.PriorityState, func() {
		d0.EachContainer(func(c *simdocker.Container) {
			if c.State() == runtime.Running {
				if err := d0.Stop(c.ID()); err != nil {
					t.Fatal(err)
				}
			}
		})
	})
	r.at(4.2, sim.PriorityState, func() { r.launch(t, d1, "a", 1e9) })
	r.at(7, sim.PriorityState, func() { r.launch(t, d1, "b", 1e9) })
	r.at(8, sim.PriorityState, func() {
		var husks []string
		d0.EachContainer(func(c *simdocker.Container) { husks = append(husks, c.ID()) })
		for _, id := range husks {
			if err := d0.Remove(id); err != nil {
				t.Fatal(err)
			}
		}
	})
	r.e.Run(12)
	r.ref.check(t)
	if r.col.jobs["a"].Restarts != 1 || r.col.jobs["b"].Restarts != 1 {
		t.Fatal("jobs were not rebound")
	}
	// b's husk, still bound and unfinished, yielded its evaluation value
	// at the ticks at 4 and 5 before the tail cap dropped it.
	var at []float64
	for _, p := range r.col.EvalSeries("b").Points() {
		at = append(at, p.T)
	}
	if fmt.Sprint(at) != "[1 2 3 4 5 7 8 9 10 11 12]" {
		t.Fatalf("b's eval samples at %v", at)
	}
}

// TestRandomRunsMatchReference drives random operations — arrivals,
// limit updates, stops, kills, checkpoint moves, late attaches and
// rebinds — at random instants, tick instants included, on an odd
// period, and requires the derived series to equal the reference's,
// read mid-run and at the end.
func TestRandomRunsMatchReference(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			period := []float64{0.7, 1, 2.5}[seed%3]
			r := newRig(period)
			workers := []*simdocker.Daemon{r.worker("w0."), r.worker("w1.")}
			jobs := 0
			pick := func(d *simdocker.Daemon, running bool) *simdocker.Container {
				var cs []*simdocker.Container
				d.EachContainer(func(c *simdocker.Container) {
					if !running || c.State() == runtime.Running {
						cs = append(cs, c)
					}
				})
				if len(cs) == 0 {
					return nil
				}
				return cs[rng.Intn(len(cs))]
			}
			for i := 0; i < 60; i++ {
				// Half the operations land on a tick instant.
				at := float64(rng.Intn(40)) * period
				if rng.Intn(2) == 0 {
					at = rng.Float64() * 40 * period
				}
				prio := []sim.Priority{sim.PriorityState, sim.PriorityMetric}[rng.Intn(2)]
				op := rng.Intn(8)
				r.at(at, prio, func() {
					d := workers[rng.Intn(len(workers))]
					switch op {
					case 0, 1:
						jobs++
						r.launch(t, d, fmt.Sprintf("j%d", jobs), 0.5+rng.Float64()*20)
					case 2:
						if c := pick(d, true); c != nil {
							_ = d.Update(c.ID(), 0.1+0.9*rng.Float64())
						}
					case 3:
						if c := pick(d, true); c != nil {
							_ = d.Stop(c.ID())
						}
					case 4:
						if c := pick(d, false); c != nil && c.State() == runtime.Exited {
							_ = d.Remove(c.ID())
						}
					case 5:
						c := pick(d, true)
						if c == nil {
							return
						}
						cp, err := d.Checkpoint(c.ID())
						if err != nil {
							t.Fatal(err)
						}
						to := workers[rng.Intn(len(workers))]
						r.at(float64(r.e.Now())+rng.Float64()*3*period, sim.PriorityState, func() {
							if nc, err := to.Restore(cp); err == nil {
								r.col.TrackJobMigrated(cp.Name, "w", "m", nc.ID(), float64(nc.StartedAt()))
							}
						})
					case 6:
						if len(workers) < 4 {
							workers = append(workers, r.worker(fmt.Sprintf("w%d.", len(workers))))
						}
					case 7:
						// Re-place a stopped job from scratch elsewhere.
						c := pick(d, false)
						if c == nil || c.State() != runtime.Exited || c.Workload().Done() ||
							r.col.jobs[c.Name()].ContainerID != c.ID() {
							return
						}
						to := workers[rng.Intn(len(workers))]
						if _, err := to.Lookup(c.Name()); err == nil {
							return // the husk holds the name there
						}
						r.launch(t, to, c.Name(), 0.5+rng.Float64()*20)
					}
				})
			}
			// Read mid-run too: the derived series and the log index
			// must catch up with what the run did since.
			r.e.Run(sim.Time(20 * period))
			r.ref.check(t)
			r.e.Run(sim.Time(50 * period))
			r.ref.check(t)
			if r.ref.samples() == 0 {
				t.Fatal("no samples")
			}
		})
	}
}

// TestTickAllocs: once the tick instants' slice has room, a dense tick
// allocates nothing — it re-arms its own event instead of scheduling a
// new one, and notes its instant.
func TestTickAllocs(t *testing.T) {
	e := sim.NewEngine()
	col := NewCollectorTier(e, 1.0, TierDense)
	attachWorkers(t, col, e, 2, 8)
	col.ticks = make([]tickMark, 0, 512)
	before := e.Executed()
	if allocs := testing.AllocsPerRun(100, func() { e.Run(e.Now() + 1) }); allocs != 0 {
		t.Fatalf("a steady-state tick allocates %.1f per run, want 0", allocs)
	}
	if got := e.Executed() - before; got != 101 {
		t.Fatalf("%d events in 101 periods, want one tick each", got)
	}
}

// TestObserverAllocs: the collector observing a node adds nothing to a
// reallocation's allocations once its rate log has room — one record
// per running container, at 256 containers.
func TestObserverAllocs(t *testing.T) {
	plan := func(observe bool) float64 {
		e := sim.NewEngine()
		col := NewCollectorTier(e, 1e6, TierDense)
		d := endlessPool(t, col, e, "", 256)
		if observe {
			col.AttachWorker("w0", d)
			col.workers[0].recs = make([]foldRec, 0, 256*110)
		}
		ids := []string{}
		d.EachContainer(func(c *simdocker.Container) { ids = append(ids, c.ID()) })
		i := 0
		return testing.AllocsPerRun(100, func() {
			i++
			if err := d.Update(ids[i%256], 0.5+0.5*float64(i%2)); err != nil {
				t.Fatal(err)
			}
			e.Run(e.Now() + 0.25)
		})
	}
	without, with := plan(false), plan(true)
	if with != without {
		t.Fatalf("a reallocation allocates %.1f observed, %.1f unobserved", with, without)
	}
}

package simdocker

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/runtime"
	"repro/internal/sim"
)

// lastFold is an observer that keeps each container's latest report.
type lastFold struct {
	folds   map[*Container]Fold
	removed map[*Container]uint64
	calls   int
}

func newLastFold() *lastFold {
	return &lastFold{folds: map[*Container]Fold{}, removed: map[*Container]uint64{}}
}

func (o *lastFold) Folded(c *Container, f Fold) { o.folds[c] = f; o.calls++ }
func (o *lastFold) Removed(c *Container, stamp uint64) {
	o.removed[c] = stamp
	o.calls++
}

// TestObserverRebuildsReads drives random runs, stops, updates,
// checkpoints, restores and removals on two daemons, installs the
// observer on the other mid-run, and at random instants requires every
// read of every container — CPU seconds, the evaluation value
// AppendRunningStats reports, the state — to equal what its latest fold
// rebuilds, bit for bit, and every reported container that was removed
// to have been reported removed.
func TestObserverRebuildsReads(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			e := sim.NewEngine()
			obs := newLastFold()
			var ds []*Daemon
			for i := 0; i < 2; i++ {
				d := NewDaemon(e, 1.0)
				d.SetIDPrefix(fmt.Sprint("w", i))
				d.SetContentionOverhead(0.1)
				d.SetMemoryCapacity(3)
				d.Pull(Image{Ref: "img"})
				ds = append(ds, d)
			}
			ds[0].SetObserver(obs)
			all := map[*Container]*Daemon{}
			check := func() {
				for _, d := range ds {
					if d.observer == nil {
						continue
					}
					stats := map[string]float64{}
					for _, st := range d.AppendRunningStats(nil) {
						stats[st.ID] = st.Eval
					}
					for c, home := range all {
						if home != d {
							continue
						}
						if c.Removed() {
							// One removed before the observer was installed
							// was never reported at all.
							_, seen := obs.folds[c]
							if _, ok := obs.removed[c]; seen && !ok {
								t.Fatalf("%s removed without a report", c.ID())
							}
							continue
						}
						f, ok := obs.folds[c]
						if !ok {
							t.Fatalf("%s never reported", c.ID())
						}
						now := e.Now()
						if f.State != c.State() {
							t.Fatalf("%s: fold state %v, container %v", c.ID(), f.State, c.State())
						}
						if got, want := f.CPUAt(now), c.CPUSeconds(); math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("%s at %g: fold CPU %v, read %v", c.ID(), float64(now), got, want)
						}
						if eval, ok := stats[c.ID()]; ok {
							if got := c.Workload().EvalAt(f.WorkAt(now)); math.Float64bits(got) != math.Float64bits(eval) {
								t.Fatalf("%s at %g: fold eval %v, read %v", c.ID(), float64(now), got, eval)
							}
						} else if got, want := f.WorkAt(now), c.Workload().Work(); got != want {
							t.Fatalf("exited %s: fold work %v, workload %v", c.ID(), got, want)
						}
					}
				}
			}
			pick := func(d *Daemon, state runtime.State) *Container {
				var cs []*Container
				d.EachContainer(func(c *Container) {
					if c.State() == state {
						cs = append(cs, c)
					}
				})
				if len(cs) == 0 {
					return nil
				}
				return cs[rng.Intn(len(cs))]
			}
			for i := 0; i < 120; i++ {
				at := sim.Time(rng.Float64() * 60)
				op := rng.Intn(8)
				e.At(at, sim.PriorityState, "op", func() {
					d := ds[rng.Intn(2)]
					switch op {
					case 0, 1, 2:
						c, err := d.Run(RunSpec{Image: "img", Workload: &memJob{
							fakeJob: fakeJob{total: 1 + rng.Float64()*20, demand: 0.2 + 0.8*rng.Float64()},
							memory:  rng.Float64()}})
						if err != nil {
							t.Fatal(err)
						}
						all[c] = d
					case 3:
						if c := pick(d, runtime.Running); c != nil {
							_ = d.Update(c.ID(), 0.1+0.9*rng.Float64())
						}
					case 4:
						if c := pick(d, runtime.Running); c != nil {
							_ = d.Stop(c.ID())
						}
					case 5:
						if c := pick(d, runtime.Exited); c != nil {
							_ = d.Remove(c.ID())
						}
					case 6:
						if c := pick(d, runtime.Running); c != nil {
							cp, err := d.Checkpoint(c.ID())
							if err != nil {
								t.Fatal(err)
							}
							to := ds[rng.Intn(2)]
							if nc, err := to.Restore(cp); err == nil {
								all[nc] = to
							}
						}
					case 7:
						d.SetCapacity(0.5 + rng.Float64())
					}
				})
				e.At(sim.Time(rng.Float64()*60), sim.PriorityMetric, "check", check)
			}
			e.At(20, sim.PriorityState, "observe", func() { ds[1].SetObserver(obs) })
			e.Run(60)
			check()
			if obs.calls < 100 {
				t.Fatalf("observer saw %d calls: the test exercised little", obs.calls)
			}
		})
	}
}

// TestObserverStampsOrderAgainstEvents: a change made inside an event
// carries that event's index, and one made between events the index of
// the next, so Stamp ≤ k exactly when the change preceded event k.
func TestObserverStampsOrderAgainstEvents(t *testing.T) {
	e, d := newTestDaemon(t)
	obs := newLastFold()
	d.SetObserver(obs)
	c, err := d.Run(RunSpec{Image: "test/img:1", Workload: &fakeJob{total: 1e9, demand: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if f := obs.folds[c]; f.Stamp != 0 {
		t.Fatalf("a start before the first event carries stamp %d, want 0", f.Stamp)
	}
	var inEvent uint64
	e.At(1, sim.PriorityState, "noop", func() {})
	e.At(2, sim.PriorityState, "update", func() {
		inEvent = e.Executed()
		if err := d.Update(c.ID(), 0.5); err != nil {
			t.Fatal(err)
		}
	})
	e.Run(3)
	// The update's reallocation event ran right after the update event
	// and folded the node at 2.
	if f := obs.folds[c]; f.Stamp != inEvent+1 || f.At != 2 || f.CPUSeconds != 2 {
		t.Fatalf("reallocation fold %+v, want stamp %d, folded at 2", f, inEvent+1)
	}
	if err := d.Stop(c.ID()); err != nil {
		t.Fatal(err)
	}
	if f := obs.folds[c]; f.Stamp != e.Executed() || f.State != runtime.Exited || f.Alloc != 0 {
		t.Fatalf("exit fold %+v, want stamp %d, exited, no allocation", f, e.Executed())
	}
}

// TestSettleReallocateAllocsZeroWithObserver: an observer's calls add
// nothing to the steady-state settle+reallocate guard.
func TestSettleReallocateAllocsZeroWithObserver(t *testing.T) {
	eng, d, ids := steadyDaemon(t, 256)
	var n int
	d.SetObserver(countFolds{&n})
	if avg := refillAllocs(t, eng, d, ids[10], 200); avg != 0 {
		t.Fatalf("settle+reallocate with an observer allocates %.1f objects per op, want 0", avg)
	}
	if n < 200*256 {
		t.Fatalf("observer saw %d folds, want one per container per reallocation", n)
	}
}

type countFolds struct{ n *int }

func (o countFolds) Folded(*Container, Fold)    { *o.n++ }
func (o countFolds) Removed(*Container, uint64) {}

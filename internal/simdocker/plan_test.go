package simdocker

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/resource"
	"repro/internal/sim"
)

// Update defers its water-fill to one reallocation event per instant. These
// tests pin what that must not change: the shares an instant ends with, the
// CPU-seconds charged between instants, the order of same-instant events,
// and what a later event at the plan's instant observes.

// checkShares asserts every running container's share is bit-identical to
// the reference allocator over claims built from PS(false).
func checkShares(t *testing.T, step int, d *Daemon) {
	t.Helper()
	running := d.PS(false)
	claims := make([]resource.Claim, len(running))
	for i, c := range running {
		claims[i] = resource.Claim{ID: c.ID(), Limit: c.CPULimit(), Demand: c.workload.CPUDemand()}
	}
	for i, a := range new(resource.Allocator).Allocate(d.Capacity(), claims) {
		if got := running[i].CPUAlloc(); got != a.Amount {
			t.Fatalf("step %d: %s alloc %v, reference %v", step, a.ID, got, a.Amount)
		}
	}
}

// TestPlanExactness drives seeded random plans of 1–40 operations per
// instant — mostly limit updates, with Run and Stop interleaved — and
// checks after each instant drains that every share equals the reference
// allocation, that the incremental aggregates agree with a recount, and
// that the CPU-seconds charged over the gap to the next instant are
// exactly Σ alloc·dt at the drained allocation.
func TestPlanExactness(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			e := sim.NewEngine()
			d := NewDaemon(e, 1.0)
			d.SetContentionOverhead(0.05)
			d.SetMemoryCapacity(1 << 20)
			d.Pull(Image{Ref: "img:1"})

			// Totals far beyond the horizon: containers leave only by a
			// plan's Stop, so nothing reallocates between instants and the
			// charge over a gap is a single settle at the drained shares.
			run := func() {
				w := &memJob{
					fakeJob: fakeJob{total: 1e12, demand: 0.2 + 0.8*rng.Float64()},
					memory:  float64(rng.Intn(1 << 18)),
				}
				if _, err := d.Run(RunSpec{Image: "img:1", Workload: w, CPULimit: 0.05 + 0.95*rng.Float64()}); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 8; i++ {
				run()
			}

			cpu := map[*Container]float64{}
			alloc := map[*Container]float64{}
			snapshot := func() {
				clear(cpu)
				clear(alloc)
				for _, c := range d.runningList {
					cpu[c], alloc[c] = c.cpuSeconds, c.alloc
				}
			}
			snapshot()

			at := sim.Time(0)
			for step := 0; step < 400; step++ {
				dt := 0.1 + 3*rng.Float64()
				prev := at
				at += sim.Time(dt)
				k := 1 + rng.Intn(40)
				e.At(at, sim.PriorityExecutor, "plan", func() {
					d.Sync()
					gap := float64(at - prev)
					var charged, want float64
					for c, before := range cpu {
						if exp := before + alloc[c]*gap; c.cpuSeconds != exp {
							t.Fatalf("step %d: %s at %v CPU-seconds, want %v + alloc·dt = %v", step, c.id, c.cpuSeconds, before, exp)
						}
						charged += c.cpuSeconds - before
						want += alloc[c] * gap
					}
					if math.Abs(charged-want) > 1e-12*math.Max(1, want) {
						t.Fatalf("step %d: Σ ΔCPUSeconds %v, Σ alloc·dt %v", step, charged, want)
					}
					for j := 0; j < k; j++ {
						running := d.runningList
						switch r := rng.Intn(10); {
						case r == 0 || len(running) == 0:
							run()
						case r == 1:
							if err := d.Stop(running[rng.Intn(len(running))].id); err != nil {
								t.Fatal(err)
							}
						default:
							c := running[rng.Intn(len(running))]
							if err := d.Update(c.id, 0.01+0.99*rng.Float64()); err != nil {
								t.Fatal(err)
							}
						}
					}
				})
				e.Run(at)
				checkShares(t, step, d)
				checkAggregates(t, step, d)
				snapshot()
			}
		})
	}
}

// TestOneReallocationEventPerInstant: however many updates a plan holds,
// the instant costs exactly one reallocation event — the engine executes
// the plan plus one more.
func TestOneReallocationEventPerInstant(t *testing.T) {
	e := sim.NewEngine()
	d := NewDaemon(e, 1.0)
	d.Pull(Image{Ref: "img"})
	var ids []string
	for i := 0; i < 32; i++ {
		c, err := d.Run(RunSpec{Image: "img", Workload: &steadyWork{rem: 1e9}})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, c.ID())
	}
	at := sim.Time(0)
	for round, k := range []int{1, 2, 7, 32, 64, 1} {
		at++
		e.At(at, sim.PriorityExecutor, "plan", func() {
			for j := 0; j < k; j++ {
				limit := 0.1 + 0.9*float64((j+round)%5)/5
				if err := d.Update(ids[j%len(ids)], limit); err != nil {
					t.Fatal(err)
				}
			}
		})
		before := e.Executed()
		e.Run(at)
		if got := e.Executed() - before; got != 2 {
			t.Fatalf("plan of %d updates: %d events executed, want 2 (plan + one reallocation)", k, got)
		}
		checkShares(t, round, d)
	}
	// An instant without updates schedules no reallocation.
	at++
	before := e.Executed()
	e.At(at, sim.PriorityExecutor, "idle", d.Sync)
	e.Run(at)
	if got := e.Executed() - before; got != 1 {
		t.Fatalf("instant without updates: %d events executed, want 1", got)
	}
}

// TestUpdateKeepsCompletionTieOrder is the regression for re-creating the
// completion event on a deferred fill: a completion at T scheduled before
// an external PriorityState event at T must still run first after an
// Update at t < T that leaves the earliest finish where it was.
func TestUpdateKeepsCompletionTieOrder(t *testing.T) {
	e, d := newTestDaemon(t)
	a := mustRun(t, d, "a", &fakeJob{total: 10, demand: 1}) // completes at T = 10
	var stateAtTie State
	e.At(10, sim.PriorityState, "external", func() { stateAtTie = a.State() })
	e.At(5, sim.PriorityExecutor, "same-limit update", func() {
		if err := d.Update(a.ID(), 1.0); err != nil {
			t.Error(err)
		}
	})
	e.RunAll()
	if stateAtTie != Exited {
		t.Fatalf("external event at T saw %s, want exited: the completion lost its place in the tie", stateAtTie)
	}
	if a.FinishedAt() != 10 {
		t.Fatalf("finished at %v, want 10", a.FinishedAt())
	}
}

// TestPlanVisibleAtItsInstant: CPULimit reflects an update at once, and
// CPUAlloc does once the instant's reallocation event has run — before
// any Listener-or-later event at that instant, whether it was queued
// before the plan ran or scheduled by it.
func TestPlanVisibleAtItsInstant(t *testing.T) {
	e, d := newTestDaemon(t)
	a := mustRun(t, d, "a", &fakeJob{total: 1000, demand: 1})
	b := mustRun(t, d, "b", &fakeJob{total: 1000, demand: 1})
	seen := map[string]float64{}
	look := func(label string) func() {
		return func() { seen[label] = a.CPUAlloc() }
	}
	e.At(10, sim.PriorityListener, "plan", func() {
		if err := d.Update(a.ID(), 0.25); err != nil {
			t.Error(err)
		}
		if a.CPULimit() != 0.25 {
			t.Errorf("CPULimit right after Update = %v, want 0.25", a.CPULimit())
		}
		e.At(10, sim.PriorityListener, "reaction", look("listener reaction"))
	})
	e.At(10, sim.PriorityListener, "listener queued after the plan", look("listener queued"))
	e.At(10, sim.PriorityExecutor, "executor", look("executor"))
	e.At(10, sim.PriorityMetric, "metric", look("metric"))
	e.Run(10)
	for _, label := range []string{"listener reaction", "listener queued", "executor", "metric"} {
		if got := seen[label]; math.Abs(got-0.2) > 1e-12 {
			t.Errorf("%s saw a's alloc %v, want 0.2 (weights 0.25 vs 1)", label, got)
		}
	}
	if math.Abs(b.CPUAlloc()-0.8) > 1e-12 {
		t.Fatalf("b alloc %v, want 0.8", b.CPUAlloc())
	}
}

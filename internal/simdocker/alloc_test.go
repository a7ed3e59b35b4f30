package simdocker

import (
	"fmt"
	"testing"

	"repro/internal/sim"
)

// steadyDaemon builds a daemon running n containers far from completion
// for the whole measurement window.
func steadyDaemon(t *testing.T, n int) (*sim.Engine, *Daemon, []string) {
	t.Helper()
	eng := sim.NewEngine()
	d := NewDaemon(eng, 1.0)
	ids := make([]string, 0, n)
	for i := 0; i < n; i++ {
		c, err := d.Run(RunSpec{Workload: &fakeJob{total: 1e9, demand: 1}})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, c.ID())
	}
	return eng, d, ids
}

// refillAllocs stages a limit through Update, drains that instant, then
// measures what every later instant's reallocation event does — settle
// and fill, called in-package — as the clock advances. Scheduling the
// instant's event is the plan's one allocation (TestPlanAllocsAtMostOne);
// the fill itself must allocate nothing.
func refillAllocs(t *testing.T, eng *sim.Engine, d *Daemon, id string, runs int) float64 {
	t.Helper()
	if err := d.Update(id, 0.5); err != nil {
		t.Fatal(err)
	}
	horizon := eng.Now()
	eng.Run(horizon)
	return testing.AllocsPerRun(runs, func() {
		horizon += 0.25
		eng.Run(horizon)
		d.settle()
		d.reallocate()
	})
}

// TestSettleReallocateAllocsZero is the regression guard for the daemon's
// steady-state hot path: advancing the clock and re-running
// settle+reallocate (what an instant's reallocation event does: scratch
// claim building, the allocator's water-fill, ETA refresh, completion
// scheduling) must not allocate. The wins this pins: claim/retire scratch
// reuse, the allocator's stack-bound sort comparator, and completion-event
// reuse when the earliest finish did not move.
func TestSettleReallocateAllocsZero(t *testing.T) {
	eng, d, ids := steadyDaemon(t, 64)
	if avg := refillAllocs(t, eng, d, ids[10], 200); avg != 0 {
		t.Fatalf("settle+reallocate allocates %.1f objects per op, want 0", avg)
	}
}

// TestPlanAllocsAtMostOne guards the docker-update path as a plan: k
// updates at one instant, then the instant drains. Update itself only
// validates and writes; the one reallocation event it queues per
// instant is the plan's only allocation, whatever k is. The plan re-sets
// the same limits every round — the steady state, in which the earliest
// finish does not move and the completion event is kept.
func TestPlanAllocsAtMostOne(t *testing.T) {
	for _, k := range []int{1, 16, 256} {
		t.Run(fmt.Sprint(k), func(t *testing.T) {
			eng, d, ids := steadyDaemon(t, 256)
			plan := func() {
				for j := 0; j < k; j++ {
					if err := d.Update(ids[j], 0.1+0.9*float64(j%8)/8); err != nil {
						t.Fatal(err)
					}
				}
			}
			horizon := eng.Now()
			plan()
			eng.Run(horizon)
			avg := testing.AllocsPerRun(100, func() {
				horizon += 0.25
				eng.Run(horizon)
				plan()
				eng.Run(horizon)
			})
			if avg > 1 {
				t.Fatalf("plan of %d updates allocates %.1f objects, want at most 1", k, avg)
			}
		})
	}
}

// TestAppendRunningStatsAllocsZero guards the bulk stats path policies
// read every tick: with a warm caller-owned buffer it must not allocate.
func TestAppendRunningStatsAllocsZero(t *testing.T) {
	eng := sim.NewEngine()
	d := NewDaemon(eng, 1.0)
	for i := 0; i < 64; i++ {
		if _, err := d.Run(RunSpec{Workload: &fakeJob{total: 1e9, demand: 1}}); err != nil {
			t.Fatal(err)
		}
	}
	buf := d.AppendRunningStats(nil) // warm the buffer
	avg := testing.AllocsPerRun(200, func() {
		buf = d.AppendRunningStats(buf[:0])
		if len(buf) != 64 {
			t.Fatalf("got %d stats", len(buf))
		}
	})
	if avg != 0 {
		t.Fatalf("AppendRunningStats allocates %.1f objects per op, want 0", avg)
	}
}

// ladder documents the pool sizes the guards hold at (mirrors the bench
// ladder; kept tiny so the test stays fast).
func TestSettleReallocateAllocsZeroLadder(t *testing.T) {
	for _, n := range []int{16, 256} {
		t.Run(fmt.Sprintf("%d", n), func(t *testing.T) {
			eng, d, ids := steadyDaemon(t, n)
			if avg := refillAllocs(t, eng, d, ids[n/2], 100); avg != 0 {
				t.Fatalf("n=%d: settle+reallocate allocates %.1f objects per op, want 0", n, avg)
			}
		})
	}
}

// TestRuntimePSAllocsOne: the runtime adapter's PS builds its views in
// one pass into the slice it returns, so a listing costs one allocation,
// `docker ps -a` over exited containers included.
func TestRuntimePSAllocsOne(t *testing.T) {
	eng, d, ids := steadyDaemon(t, 32)
	for _, id := range ids[:8] {
		if err := d.Stop(id); err != nil {
			t.Fatal(err)
		}
	}
	eng.Run(1)
	rt := NewRuntime(d)
	for _, all := range []bool{false, true} {
		want := 24
		if all {
			want = 32
		}
		if got := len(rt.PS(all)); got != want {
			t.Fatalf("PS(%t) lists %d containers, want %d", all, got, want)
		}
		if avg := testing.AllocsPerRun(100, func() { rt.PS(all) }); avg != 1 {
			t.Fatalf("PS(%t) allocates %.1f objects, want 1", all, avg)
		}
	}
}

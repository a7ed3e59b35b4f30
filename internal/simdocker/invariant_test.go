package simdocker

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/runtime"
	"repro/internal/sim"
)

// checkAggregates cross-checks every incrementally maintained daemon
// aggregate against a recompute-from-scratch over the container map. Call
// it once the current instant has drained: no update may still be staged.
func checkAggregates(t *testing.T, step int, d *Daemon) {
	t.Helper()
	if d.stale || d.reallocQueued {
		t.Fatalf("step %d: instant drained with an update still staged (stale %v, event queued %v)", step, d.stale, d.reallocQueued)
	}
	n, mem := 0, 0.0
	for _, c := range d.containers {
		if c.state != runtime.Running {
			continue
		}
		n++
		if rp, ok := c.workload.(ResourceProfiler); ok {
			mem += rp.MemoryBytes()
		}
	}
	if got := d.RunningCount(); got != n {
		t.Fatalf("step %d: RunningCount = %d, recomputed %d", step, got, n)
	}
	if got := d.MemoryUsed(); math.Abs(got-mem) > 1e-6*math.Max(1, mem) {
		t.Fatalf("step %d: MemoryUsed = %v, recomputed %v", step, got, mem)
	}
	if len(d.runningList) != n {
		t.Fatalf("step %d: runningList has %d entries, want %d", step, len(d.runningList), n)
	}
	for _, c := range d.runningList {
		if c.state != runtime.Running {
			t.Fatalf("step %d: %s container %s on runningList", step, c.state, c.id)
		}
	}
	if len(d.byName) != len(d.containers) {
		t.Fatalf("step %d: name index has %d entries, containers %d", step, len(d.byName), len(d.containers))
	}
	for name, id := range d.byName {
		c, ok := d.containers[id]
		if !ok {
			t.Fatalf("step %d: name index maps %q to missing id %s", step, name, id)
		}
		if c.name != name {
			t.Fatalf("step %d: name index maps %q to container named %q", step, name, c.name)
		}
	}
	if len(d.etas) != n {
		t.Fatalf("step %d: ETA heap has %d entries, want %d running", step, len(d.etas), n)
	}
	for i, c := range d.etas {
		if c.etaIndex != i {
			t.Fatalf("step %d: heap slot %d holds container with etaIndex %d", step, i, c.etaIndex)
		}
		if c.state != runtime.Running {
			t.Fatalf("step %d: %s container %s still in ETA heap", step, c.state, c.id)
		}
	}
}

// TestIncrementalAggregatesInvariant drives thousands of random mixed
// Run/Update/Stop/Remove/advance operations and checks after every one
// (once its instant has drained) that the cached RunningCount/MemoryUsed,
// the running list, the name index, the ETA heap and every share agree
// with values recomputed from scratch.
func TestIncrementalAggregatesInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	e := sim.NewEngine()
	d := NewDaemon(e, 1.0)
	d.SetMemoryCapacity(1 << 20)
	d.SetContentionOverhead(0.05)

	var ids []string
	const steps = 4000
	for step := 0; step < steps; step++ {
		switch rng.Intn(6) {
		case 0, 1: // start a container (some with memory footprints)
			var w runtime.Workload
			total := 1 + rng.Float64()*40
			if rng.Intn(2) == 0 {
				w = &memJob{
					fakeJob: fakeJob{total: total, demand: 1},
					memory:  float64(rng.Intn(1 << 18)),
				}
			} else {
				w = &fakeJob{total: total, demand: 0.2 + rng.Float64()*0.8}
			}
			c, err := d.Run(RunSpec{Workload: w})
			if err != nil {
				t.Fatalf("step %d: Run: %v", step, err)
			}
			ids = append(ids, c.ID())
		case 2: // re-limit a random container (no-op error if exited)
			if len(ids) > 0 {
				_ = d.Update(ids[rng.Intn(len(ids))], 0.05+rng.Float64()*0.9)
			}
		case 3: // stop a random container
			if len(ids) > 0 {
				_ = d.Stop(ids[rng.Intn(len(ids))])
			}
		case 4: // remove a random container (fails while running)
			if len(ids) > 0 {
				i := rng.Intn(len(ids))
				if d.Remove(ids[i]) == nil {
					ids = append(ids[:i], ids[i+1:]...)
				}
			}
		case 5: // advance virtual time; completions fire along the way
			e.Run(e.Now() + sim.Time(rng.Float64()*5))
		}
		e.Run(e.Now()) // drain the instant: a staged update's fill runs here
		checkAggregates(t, step, d)
		checkShares(t, step, d)
	}

	// Drain everything: the aggregates must return to exactly zero.
	e.RunAll()
	checkAggregates(t, steps, d)
	if d.RunningCount() != 0 {
		t.Fatalf("running count %d after drain, want 0", d.RunningCount())
	}
	if d.MemoryUsed() != 0 {
		t.Fatalf("memory used %v after drain, want exactly 0", d.MemoryUsed())
	}
}

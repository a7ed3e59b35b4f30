package livedock

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/resource"
	"repro/internal/runtime"
)

// poolJob is a workload with a configurable demand and an integral memory
// footprint, so sums of footprints are exact in float64.
type poolJob struct {
	work, total, demand, mem float64
}

func (j *poolJob) Advance(cpu float64) { j.work = math.Min(j.work+cpu, j.total) }
func (j *poolJob) CPUDemand() float64 {
	if j.Done() {
		return 0
	}
	return j.demand
}
func (j *poolJob) Done() bool           { return j.work >= j.total }
func (j *poolJob) Eval() float64        { return j.total - j.work }
func (j *poolJob) MemoryBytes() float64 { return j.mem }
func (j *poolJob) Work() float64        { return j.work }
func (j *poolJob) Remaining() float64   { return j.total - j.work }

// The node's incremental bookkeeping against the checked reference: after
// every step of a seeded random operation sequence, each running
// container's share is bit-identical to resource.Allocate (which still
// detects duplicate ids) over the claims PS(false) implies, the O(1)
// aggregates equal a recount, and CPU-seconds charged equal allocation
// times elapsed time.
func TestNodeMatchesReferenceAllocator(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			const capacity = 2.5
			rng := rand.New(rand.NewSource(seed))
			clk := newFakeClock()
			n := NewNodeWithClock(capacity, clk.Now)
			n.SetMemoryCapacity(1 << 40)

			jobs := map[string]*poolJob{}    // by container name
			finalCPU := map[string]float64{} // by id, from the exit view
			var frozen []*runtime.Checkpoint // checkpoints awaiting restore
			var lastExits []string           // ids delivered by the current step
			type reading struct{ cpu, alloc float64 }
			prev := map[string]reading{} // running containers at the previous check
			elapsed := 0.0               // clock advance since the previous check
			n.OnExit(func(c runtime.Container) {
				finalCPU[c.ID] = c.CPUSeconds
				lastExits = append(lastExits, c.ID)
			})

			pick := func(cs []runtime.Container) runtime.Container { return cs[rng.Intn(len(cs))] }
			exitedOf := func() []runtime.Container {
				var out []runtime.Container
				for _, c := range n.PS(true) {
					if c.State == runtime.Exited {
						out = append(out, c)
					}
				}
				return out
			}
			launched := 0
			for step := 0; step < 1500; step++ {
				lastExits = lastExits[:0]
				running := n.PS(false)
				switch op := rng.Intn(100); {
				case op < 30:
					launched++
					name := fmt.Sprintf("j%d", launched)
					jobs[name] = &poolJob{
						total:  1 + 40*rng.Float64(),
						demand: []float64{0.3, 1, 2, 4}[rng.Intn(4)],
						mem:    float64(1 + rng.Intn(1<<20)),
					}
					limit := []float64{0, 0.05, 0.25, 0.5, 1}[rng.Intn(5)]
					if _, err := n.Launch(runtime.LaunchSpec{Name: name, Workload: jobs[name], CPULimit: limit}); err != nil {
						t.Fatalf("step %d: launch: %v", step, err)
					}
				case op < 50 && len(running) > 0:
					// May race a completion the same call settles; both fine.
					_ = n.SetCPULimit(pick(running).ID, 0.01+0.99*rng.Float64())
				case op < 58 && len(running) > 0:
					_ = n.Stop(pick(running).ID)
				case op < 66 && len(running) > 0:
					if cp, err := n.Checkpoint(pick(running).ID); err == nil {
						frozen = append(frozen, cp)
					}
				case op < 74 && len(frozen) > 0:
					i := rng.Intn(len(frozen))
					if _, err := n.Restore(frozen[i]); err != nil {
						t.Fatalf("step %d: restore: %v", step, err)
					}
					frozen = slices.Delete(frozen, i, i+1)
				case op < 80:
					if ex := exitedOf(); len(ex) > 0 {
						if err := n.Remove(pick(ex).ID); err != nil {
							t.Fatalf("step %d: remove: %v", step, err)
						}
					}
				default:
					d := time.Duration(rng.Intn(3000)) * time.Millisecond
					clk.Advance(d)
					elapsed += d.Seconds()
				}

				ps := n.PS(false)
				claims := make([]resource.Claim, len(ps))
				recount := 0.0
				for i, c := range ps {
					claims[i] = resource.Claim{ID: c.ID, Limit: c.CPULimit, Demand: jobs[c.Name].CPUDemand()}
					recount += c.MemoryBytes
				}
				for i, want := range resource.Allocate(capacity, claims) {
					if math.Float64bits(ps[i].CPUAlloc) != math.Float64bits(want.Amount) {
						t.Fatalf("step %d: %s alloc %v, reference %v", step, ps[i].ID, ps[i].CPUAlloc, want.Amount)
					}
				}
				if got := n.RunningCount(); got != len(ps) {
					t.Fatalf("step %d: RunningCount %d, PS(false) has %d", step, got, len(ps))
				}
				if got := n.MemoryUsed(); got != recount {
					t.Fatalf("step %d: MemoryUsed %v, recount %v", step, got, recount)
				}
				if !slices.IsSortedFunc(lastExits, func(a, b string) int { return idSeq(a) - idSeq(b) }) {
					t.Fatalf("step %d: exits %v not in creation order", step, lastExits)
				}

				// Shares only change inside operations, which settle first, so
				// everything running at the previous check was charged its
				// share for exactly the time that has passed since.
				cpuNow := map[string]float64{}
				for _, c := range n.PS(true) {
					cpuNow[c.ID] = c.CPUSeconds
				}
				charged, owed := 0.0, 0.0
				for id, r := range prev {
					now, ok := cpuNow[id]
					if !ok {
						now, ok = finalCPU[id] // checkpointed out of the pool
					}
					if !ok {
						t.Fatalf("step %d: %s vanished without an exit notification", step, id)
					}
					charged += now - r.cpu
					owed += r.alloc * elapsed
				}
				if math.Abs(charged-owed) > 1e-9*(1+owed) {
					t.Fatalf("step %d: charged %v cpu-seconds, allocations owe %v", step, charged, owed)
				}
				clear(prev)
				for _, c := range ps {
					prev[c.ID] = reading{cpu: c.CPUSeconds, alloc: c.CPUAlloc}
				}
				elapsed = 0
			}
			if launched == 0 || len(finalCPU) == 0 {
				t.Fatalf("sequence exercised nothing: %d launches, %d exits", launched, len(finalCPU))
			}
		})
	}
}

// idSeq recovers the creation sequence number from a container id.
func idSeq(id string) int {
	seq, err := strconv.Atoi(strings.TrimPrefix(id, "live-c"))
	if err != nil {
		panic(err)
	}
	return seq
}

// Exit notifications follow creation order, not id string order: past
// 9999 launches "live-c10000" sorts before "live-c9999" as a string. The
// stopped container is also the oldest here, so it must be delivered
// ahead of the younger ones the same call retires.
func TestExitOrderAcrossIDRollover(t *testing.T) {
	clk := newFakeClock()
	n := NewNodeWithClock(1.0, clk.Now)
	n.seq = 9997
	var exits []string
	n.OnExit(func(c runtime.Container) { exits = append(exits, c.ID) })

	long, _ := n.Run("long", &tinyJob{total: 1000})
	for i := 0; i < 3; i++ {
		if _, err := n.Run("", &tinyJob{total: 1}); err != nil {
			t.Fatal(err)
		}
	}
	clk.Advance(10 * time.Second)
	if err := n.Stop(long); err != nil {
		t.Fatal(err)
	}
	want := []string{"live-c9998", "live-c9999", "live-c10000", "live-c10001"}
	if !slices.Equal(exits, want) {
		t.Fatalf("exit order %v, want %v", exits, want)
	}
}

// Ids are unique because one counter mints them; if that ever breaks, the
// launch that would put a second container under an id panics instead of
// corrupting the pool.
func TestDuplicateContainerIDPanics(t *testing.T) {
	n := NewNodeWithClock(1.0, newFakeClock().Now)
	if _, err := n.Run("a", &tinyJob{total: 10}); err != nil {
		t.Fatal(err)
	}
	n.seq--
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "duplicate container id") {
			t.Fatalf("recovered %v, want a duplicate-id panic", r)
		}
	}()
	_, _ = n.Run("b", &tinyJob{total: 10})
}

// Malformed allocator input still panics through the node: the pooled
// allocator kept every check but the duplicate one.
func TestInvalidDemandPanics(t *testing.T) {
	n := NewNodeWithClock(1.0, newFakeClock().Now)
	defer func() {
		if recover() == nil {
			t.Fatal("negative demand did not panic")
		}
	}()
	_, _ = n.Run("neg", &poolJob{total: 10, demand: -1})
}

// The hot path allocates nothing in steady state, and what a launch
// allocates does not depend on how many containers are already running.
func TestHotPathAllocations(t *testing.T) {
	clk := newFakeClock()
	n := NewNodeWithClock(1.0, clk.Now)
	launch := func() string {
		id, err := n.Run("", &tinyJob{total: 1e12})
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	// Size the maps and pool slices past the largest occupancy measured
	// below, so their growth is not counted as per-call cost, and start
	// the id counter where formatting it costs the same at both readings
	// (fmt boxes integers below 256 without allocating).
	const room = 4096
	n.seq = 1000
	n.containers = make(map[string]*Container, room)
	n.byName = make(map[string]*Container, room)
	n.order = make([]*Container, 0, room)
	n.running = make([]*Container, 0, room)
	n.claims = make([]resource.Claim, 0, room)
	var ids []string
	for len(ids) < 10 {
		ids = append(ids, launch())
	}

	const runs = 50
	launchAllocs := func() float64 {
		made := make([]string, 0, runs+1)
		allocs := testing.AllocsPerRun(runs, func() { made = append(made, launch()) })
		ids = append(ids, made...)
		return allocs
	}
	at10 := launchAllocs()
	for len(ids) < 1000 {
		ids = append(ids, launch())
	}

	for name, fn := range map[string]func(){
		"Settle":       func() { clk.Advance(time.Millisecond); n.Settle() },
		"SetCPULimit":  func() { _ = n.SetCPULimit(ids[500], 0.5) },
		"RunningCount": func() { _ = n.RunningCount() },
		"MemoryUsed":   func() { _ = n.MemoryUsed() },
	} {
		if allocs := testing.AllocsPerRun(100, fn); allocs != 0 {
			t.Errorf("%s allocates %v objects per call with %d running, want 0", name, allocs, n.RunningCount())
		}
	}

	for len(ids) < 2000 {
		ids = append(ids, launch())
	}
	if at2000 := launchAllocs(); at2000 != at10 && !raceEnabled {
		t.Errorf("Launch allocates %v objects at occupancy 2000 but %v at occupancy 10", at2000, at10)
	}
}

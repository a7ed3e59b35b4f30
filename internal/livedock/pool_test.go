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

// refChecker holds a node against the reference allocator. After every
// step each running container's share is within refTol·capacity of
// resource.Allocator over the claims
// PS(false) implies, the shares sum to at most capacity·(1+refTol), the
// O(1) aggregates equal a recount, and CPU-seconds charged equal
// allocation times elapsed time.
type refChecker struct {
	t        *testing.T
	clk      *fakeClock
	n        *Node
	capacity float64

	jobs      map[string]*poolJob // by container name
	finalCPU  map[string]float64  // by id, from the exit view
	lastExits []string            // ids delivered by the current step
	prev      map[string]reading  // running containers at the previous check
	elapsed   float64             // clock advance since the previous check
}

type reading struct{ cpu, alloc float64 }

// refTol is how far a share may sit from the reference, relative to
// capacity: the node's level is one quotient where resource.Allocator
// carries a progressive remainder, so they agree to rounding, not bits.
const refTol = 1e-12

func newRefChecker(t *testing.T, capacity float64) *refChecker {
	r := &refChecker{
		t:        t,
		clk:      newFakeClock(),
		capacity: capacity,
		jobs:     map[string]*poolJob{},
		finalCPU: map[string]float64{},
		prev:     map[string]reading{},
	}
	r.n = NewNodeWithClock(capacity, r.clk.Now)
	r.n.OnExit(func(c runtime.Container) {
		r.finalCPU[c.ID] = c.CPUSeconds
		r.lastExits = append(r.lastExits, c.ID)
	})
	return r
}

// launch starts a poolJob under name.
func (r *refChecker) launch(name string, j *poolJob, limit float64) string {
	r.t.Helper()
	r.jobs[name] = j
	v, err := r.n.Launch(runtime.LaunchSpec{Name: name, Workload: j, CPULimit: limit})
	if err != nil {
		r.t.Fatalf("launch %s: %v", name, err)
	}
	return v.ID
}

func (r *refChecker) advance(d time.Duration) {
	r.clk.Advance(d)
	r.elapsed += d.Seconds()
}

// check runs every comparison, starts the next step and returns the ids
// of the exits delivered during the step just checked.
func (r *refChecker) check(step string) []string {
	t, n := r.t, r.n
	t.Helper()
	ps := n.PS(false)
	claims := make([]resource.Claim, len(ps))
	recount, total := 0.0, 0.0
	for i, c := range ps {
		claims[i] = resource.Claim{ID: c.ID, Limit: c.CPULimit, Demand: r.jobs[c.Name].CPUDemand()}
		recount += c.MemoryBytes
		total += c.CPUAlloc
	}
	for i, want := range new(resource.Allocator).Allocate(r.capacity, claims) {
		if math.Abs(ps[i].CPUAlloc-want.Amount) > refTol*r.capacity {
			t.Fatalf("%s: %s alloc %v, reference %v", step, ps[i].ID, ps[i].CPUAlloc, want.Amount)
		}
	}
	if total > r.capacity*(1+refTol) {
		t.Fatalf("%s: shares sum to %v, capacity %v", step, total, r.capacity)
	}
	if got := n.RunningCount(); got != len(ps) {
		t.Fatalf("%s: RunningCount %d, PS(false) has %d", step, got, len(ps))
	}
	if got := n.MemoryUsed(); got != recount {
		t.Fatalf("%s: MemoryUsed %v, recount %v", step, got, recount)
	}
	if !slices.IsSortedFunc(r.lastExits, func(a, b string) int { return idSeq(a) - idSeq(b) }) {
		t.Fatalf("%s: exits %v not in creation order", step, r.lastExits)
	}

	// Shares only change inside operations, which settle first, so
	// everything running at the previous check was charged its share for
	// exactly the time that has passed since.
	cpuNow := map[string]float64{}
	for _, c := range n.PS(true) {
		cpuNow[c.ID] = c.CPUSeconds
	}
	charged, owed := 0.0, 0.0
	for id, p := range r.prev {
		now, ok := cpuNow[id]
		if !ok {
			now, ok = r.finalCPU[id] // checkpointed out of the pool
		}
		if !ok {
			t.Fatalf("%s: %s vanished without an exit notification", step, id)
		}
		charged += now - p.cpu
		owed += p.alloc * r.elapsed
	}
	if math.Abs(charged-owed) > 1e-9*(1+owed) {
		t.Fatalf("%s: charged %v cpu-seconds, allocations owe %v", step, charged, owed)
	}
	clear(r.prev)
	for _, c := range ps {
		r.prev[c.ID] = reading{cpu: c.CPUSeconds, alloc: c.CPUAlloc}
	}
	r.elapsed = 0
	exits := slices.Clone(r.lastExits)
	r.lastExits = r.lastExits[:0]
	return exits
}

// TestNodeMatchesReferenceAllocator drives seeded random operation
// sequences, then scripted ones for the boundary cases, through
// refChecker.
func TestNodeMatchesReferenceAllocator(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			const capacity = 2.5
			rng := rand.New(rand.NewSource(seed))
			r := newRefChecker(t, capacity)
			n := r.n
			var frozen []*runtime.Checkpoint // checkpoints awaiting restore

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
				running := n.PS(false)
				switch op := rng.Intn(100); {
				case op < 30:
					launched++
					r.launch(fmt.Sprintf("j%d", launched), &poolJob{
						total:  1 + 40*rng.Float64(),
						demand: []float64{0.3, 1, 2, 4}[rng.Intn(4)],
						mem:    float64(1 + rng.Intn(1<<20)),
					}, []float64{0, 0.05, 0.25, 0.5, 1}[rng.Intn(5)])
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
					r.advance(time.Duration(rng.Intn(3000)) * time.Millisecond)
				}
				r.check(fmt.Sprintf("step %d", step))
			}
			if launched == 0 || len(r.finalCPU) == 0 {
				t.Fatalf("sequence exercised nothing: %d launches, %d exits", launched, len(r.finalCPU))
			}
		})
	}

	// A small-demand container crosses the saturation level in both
	// directions: arrivals and a raised limit sink the level below its
	// ratio (saturated → fluid), departures and a lowered limit lift the
	// level above it again (fluid → saturated).
	t.Run("crossings", func(t *testing.T) {
		r := newRefChecker(t, 1.0)
		n := r.n
		groupOf := func(name string) group { return n.byName[name].group }
		expect := func(step, name string, want group) {
			t.Helper()
			r.check(step)
			if got := groupOf(name); got != want {
				t.Fatalf("%s: %s in group %d, want %d", step, name, got, want)
			}
			r.advance(1500 * time.Millisecond)
		}
		long := func(demand float64) *poolJob { return &poolJob{total: 1000, demand: demand, mem: 1} }

		r.launch("small", long(0.3), 1)
		expect("alone", "small", saturated)
		r.launch("b", long(1), 1)
		expect("+b: level 0.7", "small", saturated)
		c := r.launch("c", long(1), 1)
		expect("+c: level 0.35", "small", saturated)
		d := r.launch("d", long(1), 1)
		expect("+d: level 0.25", "small", fluid)
		if err := n.Stop(d); err != nil {
			t.Fatal(err)
		}
		expect("-d: level 0.35", "small", saturated)
		if err := n.SetCPULimit(n.byName["small"].ID, 0.5); err != nil {
			t.Fatal(err)
		}
		expect("small limit 0.5: ratio 0.6 > level 0.4", "small", fluid)
		if err := n.SetCPULimit(c, 0.1); err != nil {
			t.Fatal(err)
		}
		expect("c limit 0.1: level 0.625 passes ratio 0.6", "small", saturated)
		if _, err := n.Checkpoint(c); err != nil {
			t.Fatal(err)
		}
		expect("-c: level 0.7", "small", saturated)
	})

	// A job whose work runs out exactly on a settle instant retires at
	// that settle with exactly its work charged, whether the clock gets
	// there in one step or in several with the job read between them. In
	// the last case float residue leaves V 6e-17 short of the job's
	// virtual finish although its charged work already completes it.
	for _, tc := range []struct {
		name   string
		limit  float64 // the finishing job's; the others run at 1
		others int
		steps  int
		dt     time.Duration
	}{
		{"share 0.2 in one step", 0.25, 1, 1, 10 * time.Second},
		{"level 1/3 in three steps", 1, 2, 3, time.Second},
		{"level 1/1.7 with residue", 0.7, 1, 7, 100 * time.Millisecond},
	} {
		t.Run("finish-on-settle/"+tc.name, func(t *testing.T) {
			r := newRefChecker(t, 1.0)
			for i := 0; i < tc.others; i++ {
				r.launch(fmt.Sprintf("long%d", i), &poolJob{total: 1000, demand: 1, mem: 1}, 1)
			}
			// The work the job's share delivers over the steps, in the
			// order the node's float arithmetic accumulates it.
			level := 1 / (tc.limit + float64(tc.others))
			total := tc.limit * level * float64(tc.steps) * tc.dt.Seconds()
			id := r.launch("job", &poolJob{total: total, demand: 1, mem: 1}, tc.limit)
			r.check("launch")
			for i := 1; i <= tc.steps; i++ {
				r.advance(tc.dt)
				step := fmt.Sprintf("step %d", i)
				if i < tc.steps {
					if v, err := r.n.Lookup("job"); err != nil || v.State != runtime.Running || v.Done {
						t.Fatalf("%s: job = %+v, %v; want running", step, v, err)
					}
					if exits := r.check(step); len(exits) > 0 {
						t.Fatalf("%s: early exits %v", step, exits)
					}
					continue
				}
				if exits := r.check(step); !slices.Equal(exits, []string{id}) {
					t.Fatalf("%s: exits %v, want [%s]", step, exits, id)
				}
				if j := r.jobs["job"]; !j.Done() || math.Abs(r.finalCPU[id]-total) > 1e-12 {
					t.Fatalf("%s: done=%v after %v cpu-seconds, want %v", step, j.Done(), r.finalCPU[id], total)
				}
			}
		})
	}
}

// idSeq recovers the creation sequence number from a container id: the
// digits after the last "-c".
func idSeq(id string) int {
	seq, err := strconv.Atoi(id[strings.LastIndex(id, "-c")+2:])
	if err != nil {
		panic(err)
	}
	return seq
}

// Exit notifications follow creation order, not id string order: past
// 9999 launches "…-c10000" sorts before "…-c9999" as a string. The
// stopped container is also the oldest here, so it must be delivered
// ahead of the younger ones the same call retires.
func TestExitOrderAcrossIDRollover(t *testing.T) {
	clk := newFakeClock()
	n := NewNodeWithClock(1.0, clk.Now)
	n.seq = 9997
	var exits []string
	n.OnExit(func(c runtime.Container) { exits = append(exits, c.ID) })

	long, _ := run(n, "long", &tinyJob{total: 1000})
	for i := 0; i < 3; i++ {
		if _, err := run(n, "", &tinyJob{total: 1}); err != nil {
			t.Fatal(err)
		}
	}
	clk.Advance(10 * time.Second)
	if err := n.Stop(long); err != nil {
		t.Fatal(err)
	}
	want := []string{n.idPrefix + "9998", n.idPrefix + "9999", n.idPrefix + "10000", n.idPrefix + "10001"}
	if !slices.Equal(exits, want) {
		t.Fatalf("exit order %v, want %v", exits, want)
	}
}

// A node booted later on the same clock, as a restarted worker is, never
// reissues its predecessor's ids, though both count from one: a manager
// may still hold counters under the old ids.
func TestRestartedNodeMintsFreshIDs(t *testing.T) {
	clk := newFakeClock()
	first := NewNodeWithClock(1.0, clk.Now)
	clk.Advance(time.Second)
	second := NewNodeWithClock(1.0, clk.Now)
	a, _ := run(first, "job", &tinyJob{total: 10})
	b, _ := run(second, "job", &tinyJob{total: 10})
	if a == b || idSeq(a) != 1 || idSeq(b) != 1 {
		t.Fatalf("ids %q and %q, want distinct ids that are both first in creation order", a, b)
	}
}

// Ids are unique because one counter mints them; if that ever breaks, the
// launch that would put a second container under an id panics instead of
// corrupting the pool.
func TestDuplicateContainerIDPanics(t *testing.T) {
	n := NewNodeWithClock(1.0, newFakeClock().Now)
	if _, err := run(n, "a", &tinyJob{total: 10}); err != nil {
		t.Fatal(err)
	}
	n.seq--
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "duplicate container id") {
			t.Fatalf("recovered %v, want a duplicate-id panic", r)
		}
	}()
	_, _ = run(n, "b", &tinyJob{total: 10})
}

// A negative, NaN or infinite demand panics at launch, as
// resource.Allocator does, and before the node lock is taken, so the node
// stays usable.
func TestInvalidDemandPanics(t *testing.T) {
	n := NewNodeWithClock(1.0, newFakeClock().Now)
	for _, demand := range []float64{-1, math.NaN(), math.Inf(1)} {
		t.Run(fmt.Sprint(demand), func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("demand %v did not panic", demand)
				}
			}()
			_, _ = run(n, "bad", &poolJob{total: 10, demand: demand})
		})
	}
	if _, err := run(n, "good", &poolJob{total: 10, demand: 1}); err != nil || n.RunningCount() != 1 {
		t.Fatalf("launch after refused demands: %v, %d running", err, n.RunningCount())
	}
}

// The hot path allocates nothing in steady state, and what a launch
// allocates does not depend on how many containers are already running.
func TestHotPathAllocations(t *testing.T) {
	clk := newFakeClock()
	n := NewNodeWithClock(1.0, clk.Now)
	launch := func() string {
		id, err := run(n, "", &tinyJob{total: 1e12})
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
	n.fluidByRatio.cs = make([]*Container, 0, room)
	n.byFinish.cs = make([]*Container, 0, room)
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

// countJob is a long job that counts every call the node makes on it into
// a counter shared by the standing pool.
type countJob struct {
	poolJob
	c *callCounts
}

type callCounts struct{ calls, advances int }

func (j *countJob) Advance(cpu float64) {
	j.c.calls++
	j.c.advances++
	j.poolJob.Advance(cpu)
}
func (j *countJob) CPUDemand() float64   { j.c.calls++; return j.poolJob.CPUDemand() }
func (j *countJob) Done() bool           { j.c.calls++; return j.poolJob.Done() }
func (j *countJob) Eval() float64        { j.c.calls++; return j.poolJob.Eval() }
func (j *countJob) Remaining() float64   { j.c.calls++; return j.poolJob.Remaining() }
func (j *countJob) MemoryBytes() float64 { j.c.calls++; return j.poolJob.MemoryBytes() }
func (j *countJob) Work() float64        { j.c.calls++; return j.poolJob.Work() }

// Counts, not clocks: with 4000 containers running, a status poll
// advances at most the one workload it reads, and a launch calls no
// other container's workload at all — however much time has passed.
func TestOperationsTouchOnlyTheirContainers(t *testing.T) {
	const standing = 4000
	clk := newFakeClock()
	n := NewNodeWithClock(1.0, clk.Now)
	var counts callCounts
	for i := 0; i < standing; i++ {
		job := &countJob{poolJob: poolJob{total: 1e9, demand: 1}, c: &counts}
		if _, err := run(n, fmt.Sprintf("s%d", i), job); err != nil {
			t.Fatal(err)
		}
	}

	clk.Advance(time.Second)
	counts = callCounts{}
	if _, err := n.Lookup("s7"); err != nil {
		t.Fatal(err)
	}
	if counts.advances > 1 {
		t.Errorf("one Lookup advanced %d workloads with %d running, want at most 1", counts.advances, standing)
	}

	clk.Advance(time.Second)
	counts = callCounts{}
	if _, err := run(n, "arrival", &tinyJob{total: 1e9}); err != nil {
		t.Fatal(err)
	}
	if counts.calls != 0 {
		t.Errorf("one Launch made %d calls on other containers' workloads with %d running, want 0", counts.calls, standing)
	}
}

package livedock

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/dlmodel"
	"repro/internal/flowcon"
	"repro/internal/runtime"
)

// fakeClock is a manually-advanced clock.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{now: time.Unix(0, 0)}
}

func (f *fakeClock) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.now
}

func (f *fakeClock) Advance(d time.Duration) {
	f.mu.Lock()
	f.now = f.now.Add(d)
	f.mu.Unlock()
}

// tinyJob finishes after `total` cpu-seconds.
type tinyJob struct {
	work, total float64
}

func (j *tinyJob) Advance(cpu float64) {
	j.work += cpu
	if j.work > j.total {
		j.work = j.total
	}
}
func (j *tinyJob) CPUDemand() float64 {
	if j.Done() {
		return 0
	}
	return 1
}
func (j *tinyJob) Done() bool               { return j.work >= j.total }
func (j *tinyJob) Work() float64            { return j.work }
func (j *tinyJob) EvalAt(w float64) float64 { return j.total - w }
func (j *tinyJob) Remaining() float64       { return j.total - j.work }

// run launches w under name and returns the container id.
func run(n *Node, name string, w runtime.Workload) (string, error) {
	v, err := n.Launch(runtime.LaunchSpec{Name: name, Workload: w})
	return v.ID, err
}

func TestNodeRunAndComplete(t *testing.T) {
	clk := newFakeClock()
	n := NewNodeWithClock(1.0, clk.Now)
	var exits []string
	n.OnExit(func(c runtime.Container) { exits = append(exits, c.ID) })

	id, err := run(n, "j", &tinyJob{total: 10})
	if err != nil {
		t.Fatal(err)
	}
	clk.Advance(5 * time.Second)
	stats := n.RunningStats()
	if len(stats) != 1 || math.Abs(stats[0].CPUSeconds-5) > 1e-9 {
		t.Fatalf("stats = %+v", stats)
	}
	clk.Advance(6 * time.Second)
	n.Settle()
	if n.RunningCount() != 0 {
		t.Fatal("job still running after its work elapsed")
	}
	if len(exits) != 1 || exits[0] != id {
		t.Fatalf("exits = %v", exits)
	}
	all := n.PS(true)
	if len(all) != 1 || all[0].State != runtime.Exited {
		t.Fatalf("PS(true) = %+v", all)
	}
}

func TestNodeSharesCapacity(t *testing.T) {
	clk := newFakeClock()
	n := NewNodeWithClock(1.0, clk.Now)
	a, _ := run(n, "a", &tinyJob{total: 100})
	b, _ := run(n, "b", &tinyJob{total: 100})
	clk.Advance(10 * time.Second)
	stats := n.RunningStats()
	for _, s := range stats {
		if math.Abs(s.CPUSeconds-5) > 1e-9 {
			t.Fatalf("container %s got %v cpu-seconds, want 5", s.ID, s.CPUSeconds)
		}
	}
	// Throttle a to 0.25: weights 0.25 vs 1 -> shares 0.2/0.8.
	if err := n.SetCPULimit(a, 0.25); err != nil {
		t.Fatal(err)
	}
	clk.Advance(10 * time.Second)
	byID := map[string]flowcon.Stat{}
	for _, s := range n.RunningStats() {
		byID[s.ID] = s
	}
	if math.Abs(byID[a].CPUSeconds-7) > 1e-9 {
		t.Fatalf("a cpu = %v, want 7 (5 + 10*0.2)", byID[a].CPUSeconds)
	}
	if math.Abs(byID[b].CPUSeconds-13) > 1e-9 {
		t.Fatalf("b cpu = %v, want 13 (5 + 10*0.8)", byID[b].CPUSeconds)
	}
}

func TestNodeStopAndErrors(t *testing.T) {
	clk := newFakeClock()
	n := NewNodeWithClock(1.0, clk.Now)
	id, _ := run(n, "x", &tinyJob{total: 1000})
	if err := n.Stop(id); err != nil {
		t.Fatal(err)
	}
	if err := n.Stop(id); !errors.Is(err, ErrNotRunning) {
		t.Fatalf("double stop err = %v", err)
	}
	if err := n.Stop("nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing stop err = %v", err)
	}
	if err := n.SetCPULimit(id, 0.5); !errors.Is(err, ErrNotRunning) {
		t.Fatalf("update exited err = %v", err)
	}
	if err := n.SetCPULimit(id, 1.5); !errors.Is(err, ErrBadLimit) {
		t.Fatalf("bad limit err = %v", err)
	}
}

// TestBadLimitsRejectedAtTheEdge: every limit outside (0,1] — NaN
// included, which a `<= 0 || > 1` test lets through — is refused by
// LaunchLimit, Launch and SetCPULimit, and a refused update leaves the
// running container's limit and share untouched.
func TestBadLimitsRejectedAtTheEdge(t *testing.T) {
	n := NewNodeWithClock(1.0, newFakeClock().Now)
	id, err := run(n, "x", &tinyJob{total: 1000})
	if err != nil {
		t.Fatal(err)
	}
	for _, limit := range []float64{math.NaN(), -0.5, 1.5, math.Inf(1), math.Inf(-1)} {
		t.Run(fmt.Sprint(limit), func(t *testing.T) {
			if _, err := LaunchLimit(limit); !errors.Is(err, ErrBadLimit) {
				t.Errorf("LaunchLimit(%v) = %v, want ErrBadLimit", limit, err)
			}
			if _, err := n.Launch(runtime.LaunchSpec{Name: "bad", Workload: &tinyJob{total: 1}, CPULimit: limit}); !errors.Is(err, ErrBadLimit) {
				t.Errorf("Launch(limit %v) = %v, want ErrBadLimit", limit, err)
			}
			if err := n.SetCPULimit(id, limit); !errors.Is(err, ErrBadLimit) {
				t.Errorf("SetCPULimit(%v) = %v, want ErrBadLimit", limit, err)
			}
			v, err := n.Lookup("x")
			if err != nil {
				t.Fatal(err)
			}
			if v.CPULimit != 1 || v.CPUAlloc != 1 {
				t.Errorf("after refused update: limit %v alloc %v, want 1/1", v.CPULimit, v.CPUAlloc)
			}
		})
	}
}

func TestNodeWithDLModelJob(t *testing.T) {
	clk := newFakeClock()
	n := NewNodeWithClock(1.0, clk.Now)
	job := dlmodel.NewJob("live-mnist", dlmodel.MNISTTensorFlow())
	if _, err := run(n, "mnist", job); err != nil {
		t.Fatal(err)
	}
	clk.Advance(30 * time.Second) // W=28 at full rate
	n.Settle()
	if !job.Done() {
		t.Fatal("dlmodel job not done on live node")
	}
}

func TestNodeConcurrentAccess(t *testing.T) {
	n := NewNode(1.0)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			id, err := run(n, "", &tinyJob{total: 0.001})
			if err != nil {
				t.Error(err)
				return
			}
			for j := 0; j < 50; j++ {
				n.RunningStats()
				_ = n.SetCPULimit(id, 0.5) // may race with completion; both fine
				n.Settle()
			}
		}()
	}
	wg.Wait()
	// Drain: everything eventually exits.
	time.Sleep(10 * time.Millisecond)
	n.Settle()
	if n.RunningCount() != 0 {
		t.Fatalf("%d containers still running", n.RunningCount())
	}
}

func TestNewNodeValidation(t *testing.T) {
	for name, fn := range map[string]func(){
		"zero capacity":     func() { NewNode(0) },
		"negative capacity": func() { NewNode(-1) },
		"NaN capacity":      func() { NewNode(math.NaN()) },
		"+Inf capacity":     func() { NewNode(math.Inf(1)) },
		"nil clock":         func() { NewNodeWithClock(1, nil) },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("did not panic")
				}
			}()
			fn()
		})
	}
}

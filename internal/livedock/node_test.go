package livedock

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/dlmodel"
	"repro/internal/flowcon"
	"repro/internal/realtime"
	"repro/internal/runtime"
	"repro/internal/sim"
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
func run(n *Node, name string, w Workload) (string, error) {
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

// End-to-end: the simulator's flowcon.Controller governs a live node
// under a fake clock, wired as cmd/flowcon-worker wires it (the node's
// hooks post the listener calls to whoever owns the engine) but with the
// test, not a pacer, advancing the engine once a second.
func TestControllerOverLiveNode(t *testing.T) {
	clk := newFakeClock()
	n := NewNodeWithClock(1.0, clk.Now)
	eng := sim.NewEngine()
	ctrl := flowcon.NewController(flowcon.Config{Alpha: 0.05, Beta: 2, InitialInterval: 20}, eng, n, nil)
	var inbox []func()
	realtime.Listen(n, ctrl, func(fn func()) { inbox = append(inbox, fn) })
	ctrl.Start()

	// Converged long-runner from t=0, fresh fast job at t=80 — the fixed
	// schedule's core interaction.
	vae := dlmodel.NewJob("vae", dlmodel.VAEPyTorch())
	vaeID, _ := run(n, "vae", vae)
	var mnistID string

	for sec := 1; sec <= 120; sec++ {
		clk.Advance(time.Second)
		if sec == 80 {
			mnist := dlmodel.NewJob("mnist", dlmodel.MNISTTensorFlow())
			mnistID, _ = run(n, "mnist", mnist)
		}
		now := sim.Time(sec)
		for _, fn := range inbox {
			eng.At(now, sim.PriorityState, "hook", fn)
		}
		inbox = inbox[:0]
		eng.Run(now)
	}
	if l, ok := ctrl.ListOf(vaeID); !ok || l != flowcon.CompletingList {
		t.Fatalf("VAE in %v, want CL", l)
	}
	if l, ok := ctrl.ListOf(mnistID); !ok || l != flowcon.NewList {
		t.Fatalf("MNIST in %v, want NL", l)
	}
	var vaeAlloc, mnistAlloc float64
	for _, c := range n.PS(true) {
		switch c.ID {
		case vaeID:
			vaeAlloc = c.CPUAlloc
		case mnistID:
			mnistAlloc = c.CPUAlloc
		}
	}
	if vaeAlloc >= mnistAlloc {
		t.Fatalf("converged VAE (%v) not yielding to MNIST (%v)", vaeAlloc, mnistAlloc)
	}
}

// Wall-clock smoke test: real time, miniature scale, the controller on a
// paced engine as in the worker. The job's start and exit each reach the
// controller through the pacer's inbox.
func TestNodeWallClockSmoke(t *testing.T) {
	n := NewNode(1.0)
	eng := sim.NewEngine()
	pacer := realtime.NewPacer(eng)
	ctrl := flowcon.NewController(flowcon.Config{Alpha: 0.05, InitialInterval: 0.01}, eng, n, nil)
	realtime.Listen(n, ctrl, pacer.Post)
	ctrl.Start()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	paced := make(chan struct{})
	go func() {
		defer close(paced)
		pacer.Run(ctx)
	}()

	job := &tinyJob{total: 0.02} // 20ms of CPU work
	id, err := run(n, "smoke", job)
	if err != nil {
		t.Fatal(err)
	}
	// Workload state is only touched under the node's lock, so observe
	// completion through the node rather than the job.
	for n.RunningCount() > 0 {
		select {
		case <-ctx.Done():
			t.Fatal("live job did not finish in wall time")
		case <-time.After(5 * time.Millisecond):
		}
		n.Settle()
	}
	// Posted after the exit's listener call, this runs in the wake that
	// runs the call or a later one, and Run returns only between wakes.
	flushed := make(chan struct{})
	pacer.Post(func() { close(flushed) })
	<-flushed
	cancel()
	<-paced
	if ctrl.Runs() < 2 {
		t.Fatalf("Algorithm 1 ran %d times, want at least the arrival and the departure", ctrl.Runs())
	}
	if l, ok := ctrl.ListOf(id); ok {
		t.Fatalf("finished container still in %v", l)
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

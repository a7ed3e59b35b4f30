package simdocker

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/dlmodel"
	"repro/internal/flowcon"
	"repro/internal/runtime"
	"repro/internal/sim"
)

// fakeJob is a minimal Workload with fixed total work and linear eval.
type fakeJob struct {
	work   float64
	total  float64
	demand float64
}

func (f *fakeJob) Advance(cpu float64) {
	f.work += cpu
	if f.work > f.total {
		f.work = f.total
	}
}
func (f *fakeJob) CPUDemand() float64 {
	if f.Done() {
		return 0
	}
	return f.demand
}
func (f *fakeJob) Done() bool               { return f.work >= f.total }
func (f *fakeJob) Work() float64            { return f.work }
func (f *fakeJob) EvalAt(w float64) float64 { return f.total - w }
func (f *fakeJob) Remaining() float64       { return f.total - f.work }

func newTestDaemon(t *testing.T) (*sim.Engine, *Daemon) {
	t.Helper()
	e := sim.NewEngine()
	d := NewDaemon(e, 1.0)
	d.Pull(Image{Ref: "test/img:1", SizeBytes: 100})
	return e, d
}

func mustRun(t *testing.T, d *Daemon, name string, w Workload) *Container {
	t.Helper()
	c, err := d.Run(RunSpec{Image: "test/img:1", Name: name, Workload: w})
	if err != nil {
		t.Fatalf("Run(%s): %v", name, err)
	}
	return c
}

func TestRunRequiresImage(t *testing.T) {
	e := sim.NewEngine()
	d := NewDaemon(e, 1.0)
	_, err := d.Run(RunSpec{Image: "missing", Workload: &fakeJob{total: 1, demand: 1}})
	if !errors.Is(err, ErrNoImage) {
		t.Fatalf("err = %v, want ErrNoImage", err)
	}
}

func TestRunRejectsNilWorkloadAndBadLimit(t *testing.T) {
	_, d := newTestDaemon(t)
	if _, err := d.Run(RunSpec{Image: "test/img:1"}); err == nil {
		t.Fatal("nil workload accepted")
	}
	_, err := d.Run(RunSpec{Image: "test/img:1", Workload: &fakeJob{total: 1, demand: 1}, CPULimit: 1.5})
	if !errors.Is(err, ErrBadLimit) {
		t.Fatalf("err = %v, want ErrBadLimit", err)
	}
}

func TestRunDuplicateName(t *testing.T) {
	_, d := newTestDaemon(t)
	mustRun(t, d, "dup", &fakeJob{total: 100, demand: 1})
	_, err := d.Run(RunSpec{Image: "test/img:1", Name: "dup", Workload: &fakeJob{total: 1, demand: 1}})
	if !errors.Is(err, ErrNameInUse) {
		t.Fatalf("err = %v, want ErrNameInUse", err)
	}
}

func TestSingleContainerCompletesAnalytically(t *testing.T) {
	e, d := newTestDaemon(t)
	job := &fakeJob{total: 50, demand: 1}
	c := mustRun(t, d, "solo", job)
	e.RunAll()
	if c.State() != runtime.Exited {
		t.Fatalf("state = %v, want exited", c.State())
	}
	if got := float64(c.FinishedAt()); math.Abs(got-50) > 1e-9 {
		t.Fatalf("finished at %v, want 50 (50 work at full allocation)", got)
	}
	if math.Abs(c.cpuSeconds-50) > 1e-9 {
		t.Fatalf("cpuSeconds = %v, want 50", c.cpuSeconds)
	}
}

func TestTwoEqualContainersShareFairly(t *testing.T) {
	e, d := newTestDaemon(t)
	a := mustRun(t, d, "a", &fakeJob{total: 50, demand: 1})
	b := mustRun(t, d, "b", &fakeJob{total: 50, demand: 1})
	e.RunAll()
	// Both share 0.5 until both finish at t=100.
	if math.Abs(float64(a.FinishedAt())-100) > 1e-9 || math.Abs(float64(b.FinishedAt())-100) > 1e-9 {
		t.Fatalf("finished at %v and %v, want 100", a.FinishedAt(), b.FinishedAt())
	}
}

func TestStaggeredArrivalSharing(t *testing.T) {
	e, d := newTestDaemon(t)
	a := mustRun(t, d, "a", &fakeJob{total: 100, demand: 1})
	var b *Container
	e.At(40, sim.PriorityState, "launch-b", func() {
		b = mustRun(t, d, "b", &fakeJob{total: 30, demand: 1})
	})
	e.RunAll()
	// a runs alone 0-40 (40 work), then shares 0.5. b needs 60s of sharing
	// to finish 30 work -> b done at 100. a then has 100-40-30=30 left at
	// full rate -> done at 130.
	if math.Abs(float64(b.FinishedAt())-100) > 1e-9 {
		t.Fatalf("b finished at %v, want 100", b.FinishedAt())
	}
	if math.Abs(float64(a.FinishedAt())-130) > 1e-9 {
		t.Fatalf("a finished at %v, want 130", a.FinishedAt())
	}
}

func TestUpdateLimitChangesRates(t *testing.T) {
	e, d := newTestDaemon(t)
	a := mustRun(t, d, "a", &fakeJob{total: 100, demand: 1})
	b := mustRun(t, d, "b", &fakeJob{total: 100, demand: 1})
	// At t=10, throttle a to 0.25: b then gets 0.75.
	e.At(10, sim.PriorityExecutor, "update", func() {
		if err := d.Update(a.ID(), 0.25); err != nil {
			t.Errorf("Update: %v", err)
		}
	})
	e.RunAll()
	// Phase 1 (0-10): each 0.5 -> a=5, b=5 work.
	// Phase 2: weights 0.25 vs 1 -> a gets 0.2, b gets 0.8. b finishes
	// after (100-5)/0.8 = 118.75s -> t = 128.75; a has 5+118.75*0.2 =
	// 28.75 work, then runs alone at full rate (weights renormalize):
	// 71.25 more seconds -> t = 200.
	if math.Abs(float64(b.FinishedAt())-(10+95/0.8)) > 1e-6 {
		t.Fatalf("b finished at %v, want %v", b.FinishedAt(), 10+95/0.8)
	}
	if math.Abs(float64(a.FinishedAt())-200) > 1e-6 {
		t.Fatalf("a finished at %v, want 200", a.FinishedAt())
	}
}

func TestUpdateErrors(t *testing.T) {
	e, d := newTestDaemon(t)
	c := mustRun(t, d, "a", &fakeJob{total: 10, demand: 1})
	if err := d.Update("nope", 0.5); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
	if err := d.Update(c.ID(), 2.0); !errors.Is(err, ErrBadLimit) {
		t.Fatalf("err = %v, want ErrBadLimit", err)
	}
	e.RunAll()
	if err := d.Update(c.ID(), 0.5); !errors.Is(err, ErrNotRunning) {
		t.Fatalf("err = %v, want ErrNotRunning", err)
	}
}

// TestBadLimitsRejectedAtTheEdge: every limit outside (0,1] — NaN
// included, which a `<= 0 || > 1` test lets through — is refused by Run
// and by Update. A refused Update stages nothing: the limit is unchanged
// and no reallocation event is queued.
func TestBadLimitsRejectedAtTheEdge(t *testing.T) {
	e, d := newTestDaemon(t)
	c := mustRun(t, d, "a", &fakeJob{total: 100, demand: 1})
	for _, limit := range []float64{math.NaN(), -0.5, 1.5, math.Inf(1), math.Inf(-1)} {
		t.Run(fmt.Sprint(limit), func(t *testing.T) {
			_, err := d.Run(RunSpec{Image: "test/img:1", Workload: &fakeJob{total: 1, demand: 1}, CPULimit: limit})
			if !errors.Is(err, ErrBadLimit) {
				t.Errorf("Run(limit %v) = %v, want ErrBadLimit", limit, err)
			}
			queued := e.Len()
			if err := d.Update(c.ID(), limit); !errors.Is(err, ErrBadLimit) {
				t.Errorf("Update(%v) = %v, want ErrBadLimit", limit, err)
			}
			if e.Len() != queued || c.CPULimit() != 1 {
				t.Errorf("refused Update(%v) staged something: %d events queued (was %d), limit %v",
					limit, e.Len(), queued, c.CPULimit())
			}
		})
	}
	if d.RunningCount() != 1 || c.CPUAlloc() != 1 {
		t.Fatalf("running %d, alloc %v after refused limits, want 1 and 1", d.RunningCount(), c.CPUAlloc())
	}
}

func TestStopAndRemove(t *testing.T) {
	e, d := newTestDaemon(t)
	c := mustRun(t, d, "a", &fakeJob{total: 1000, demand: 1})
	e.At(5, sim.PriorityState, "stop", func() {
		if err := d.Stop(c.ID()); err != nil {
			t.Errorf("Stop: %v", err)
		}
	})
	e.RunAll()
	if c.State() != runtime.Exited || float64(c.FinishedAt()) != 5 {
		t.Fatalf("state=%v finishedAt=%v, want exited at 5", c.State(), c.FinishedAt())
	}
	if err := d.Remove(c.ID()); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	if _, err := d.Get(c.ID()); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get after remove = %v, want ErrNotFound", err)
	}
}

func TestRemoveRunningFails(t *testing.T) {
	_, d := newTestDaemon(t)
	c := mustRun(t, d, "a", &fakeJob{total: 1000, demand: 1})
	if err := d.Remove(c.ID()); err == nil {
		t.Fatal("Remove on running container succeeded")
	}
}

func TestPSAndRunningCount(t *testing.T) {
	e, d := newTestDaemon(t)
	mustRun(t, d, "a", &fakeJob{total: 10, demand: 1})
	mustRun(t, d, "b", &fakeJob{total: 1000, demand: 1})
	if n := d.RunningCount(); n != 2 {
		t.Fatalf("RunningCount = %d, want 2", n)
	}
	e.Run(100) // a exits
	if n := d.RunningCount(); n != 1 {
		t.Fatalf("RunningCount = %d, want 1", n)
	}
	if got := len(d.PS(false)); got != 1 {
		t.Fatalf("PS(false) = %d containers, want 1", got)
	}
	if got := len(d.PS(true)); got != 2 {
		t.Fatalf("PS(true) = %d containers, want 2", got)
	}
}

func TestStartExitCallbacks(t *testing.T) {
	e, d := newTestDaemon(t)
	var started, exited []string
	d.OnStart(func(c *Container) { started = append(started, c.Name()) })
	d.OnExit(func(c *Container) { exited = append(exited, c.Name()) })
	mustRun(t, d, "a", &fakeJob{total: 10, demand: 1})
	mustRun(t, d, "b", &fakeJob{total: 40, demand: 1})
	e.RunAll()
	if len(started) != 2 || started[0] != "a" || started[1] != "b" {
		t.Fatalf("started = %v", started)
	}
	if len(exited) != 2 || exited[0] != "a" || exited[1] != "b" {
		t.Fatalf("exited = %v", exited)
	}
}

func TestStatsSettlesAccounting(t *testing.T) {
	e, d := newTestDaemon(t)
	c := mustRun(t, d, "a", &fakeJob{total: 100, demand: 1})
	var got []flowcon.Stat
	e.At(30, sim.PriorityMetric, "stats", func() { got = d.AppendRunningStats(nil) })
	e.Run(30)
	if len(got) != 1 || got[0].ID != c.ID() {
		t.Fatalf("stats = %+v, want one row for %s", got, c.ID())
	}
	if math.Abs(got[0].CPUSeconds-30) > 1e-9 {
		t.Fatalf("CPUSeconds = %v, want 30", got[0].CPUSeconds)
	}
	if c.CPUAlloc() != 1.0 || c.CPULimit() != 1.0 {
		t.Fatalf("alloc/limit = %v/%v, want 1/1", c.CPUAlloc(), c.CPULimit())
	}
	if math.Abs(got[0].Eval-70) > 1e-9 {
		t.Fatalf("Eval = %v, want 70", got[0].Eval)
	}
}

func TestDemandBoundJobLeavesSlack(t *testing.T) {
	e, d := newTestDaemon(t)
	low := mustRun(t, d, "low", &fakeJob{total: 20, demand: 0.2})
	full := mustRun(t, d, "full", &fakeJob{total: 80, demand: 1})
	e.RunAll()
	// low gets 0.2, full gets 0.8 -> both finish at t=100.
	if math.Abs(float64(low.FinishedAt())-100) > 1e-9 {
		t.Fatalf("low finished at %v, want 100", low.FinishedAt())
	}
	if math.Abs(float64(full.FinishedAt())-100) > 1e-9 {
		t.Fatalf("full finished at %v, want 100", full.FinishedAt())
	}
}

func TestDLModelJobInContainer(t *testing.T) {
	e, d := newTestDaemon(t)
	job := dlmodel.NewJob("it-mnist-tf", dlmodel.MNISTTensorFlow())
	c := mustRun(t, d, "mnist", job)
	e.RunAll()
	if !job.Done() {
		t.Fatal("dlmodel job not done after drain")
	}
	// Work = 28 at full rate -> finish at 28s.
	if math.Abs(float64(c.FinishedAt())-28) > 1e-9 {
		t.Fatalf("finished at %v, want 28", c.FinishedAt())
	}
	if c.blkioBytes <= 0 || c.netioBytes <= 0 {
		t.Fatalf("I/O accounting empty: blkio=%v netio=%v", c.blkioBytes, c.netioBytes)
	}
	if got := d.AppendRunningStats(nil); len(got) != 0 {
		t.Fatalf("exited container still reported: %+v", got)
	}
}

// The local image store holds every pulled image by reference, and a run
// of an image that was never pulled fails with ErrNoImage.
func TestImagesListing(t *testing.T) {
	_, d := newTestDaemon(t)
	d.Pull(Image{Ref: "b/img:2"})
	d.Pull(Image{Ref: "a/img:1", SizeBytes: 7})
	if len(d.images) != 3 || d.images["a/img:1"].SizeBytes != 7 {
		t.Fatalf("image store = %v, want 3 images with a/img:1 at 7 bytes", d.images)
	}
	if _, err := d.Run(RunSpec{Image: "c/img:3", Workload: &fakeJob{total: 1, demand: 1}}); !errors.Is(err, ErrNoImage) {
		t.Fatalf("run of an unpulled image = %v, want ErrNoImage", err)
	}
}

// Containers report the runtime's lifecycle states, under its names.
func TestStateString(t *testing.T) {
	e := sim.NewEngine()
	d := NewDaemon(e, 1.0)
	d.Pull(Image{Ref: "img"})
	c, err := d.Run(RunSpec{Image: "img", Workload: &fakeJob{total: 1, demand: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if c.State() != runtime.Running || c.State().String() != "running" {
		t.Fatalf("a started container is %q", c.State())
	}
	e.RunAll()
	if c.State() != runtime.Exited || c.State().String() != "exited" {
		t.Fatalf("a finished container is %q", c.State())
	}
}

func TestNewDaemonValidation(t *testing.T) {
	for _, capacity := range []float64{0, -1, math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("capacity %v did not panic", capacity)
				}
			}()
			NewDaemon(sim.NewEngine(), capacity)
		}()
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("SetCapacity(%v) did not panic", capacity)
				}
			}()
			NewDaemon(sim.NewEngine(), 1).SetCapacity(capacity)
		}()
	}
	// Contention overhead and memory capacity admit any finite value ≥ 0
	// (0 = no contention / memory unmodelled).
	for _, v := range []float64{-1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		for name, set := range map[string]func(*Daemon, float64){
			"SetContentionOverhead": (*Daemon).SetContentionOverhead,
			"SetMemoryCapacity":     (*Daemon).SetMemoryCapacity,
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s(%v) did not panic", name, v)
					}
				}()
				set(NewDaemon(sim.NewEngine(), 1), v)
			}()
		}
	}
	d := NewDaemon(sim.NewEngine(), 1)
	d.SetContentionOverhead(0)
	d.SetMemoryCapacity(0)
}

// TestManyContainersDrain is a stress check: 30 staggered containers all
// finish, total delivered CPU time never exceeds capacity * elapsed.
func TestManyContainersDrain(t *testing.T) {
	e, d := newTestDaemon(t)
	var conts []*Container
	for i := 0; i < 30; i++ {
		i := i
		e.At(sim.Time(i*3), sim.PriorityState, "launch", func() {
			c := mustRun(t, d, "", &fakeJob{total: 10 + float64(i%7)*5, demand: 1})
			conts = append(conts, c)
		})
	}
	e.RunAll()
	total := 0.0
	for _, c := range conts {
		if c.State() != runtime.Exited {
			t.Fatalf("container %s not exited", c.ID())
		}
		total += c.cpuSeconds
	}
	elapsed := float64(e.Now())
	if total > elapsed+1e-6 {
		t.Fatalf("delivered %v cpu-seconds in %v seconds on a 1-cpu node", total, elapsed)
	}
}

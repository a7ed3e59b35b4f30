package livedock_test

import (
	"context"
	"testing"
	"time"

	"repro/internal/dlmodel"
	"repro/internal/flowcon"
	"repro/internal/livedock"
	"repro/internal/realtime"
	"repro/internal/runtime"
	"repro/internal/sim"
)

// launch starts a catalog job under name and returns its container id.
func launch(t *testing.T, n *livedock.Node, name string, p dlmodel.Profile) string {
	t.Helper()
	v, err := n.Launch(runtime.LaunchSpec{Name: name, Workload: dlmodel.NewJob(name, p)})
	if err != nil {
		t.Fatal(err)
	}
	return v.ID
}

// End-to-end: the simulator's flowcon.Controller governs a live node
// under a fake clock, wired as cmd/flowcon-worker wires it (a pacer on
// the node's clock, its hooks posting the listener calls to the pacer),
// with the test waking the pacer once a second.
func TestControllerOverLiveNode(t *testing.T) {
	clk := &confClock{now: time.Unix(0, 0)}
	n := livedock.NewNodeWithClock(1.0, clk.Now)
	eng := sim.NewEngine()
	pacer := realtime.NewPacerWithClock(eng, n, clk.Now)
	ctrl := flowcon.NewController(flowcon.Config{Alpha: 0.05, Beta: 2, InitialInterval: 20}, eng, n, nil)
	pacer.Listen(ctrl)
	ctrl.Start()

	// Converged long-runner from t=0, fresh fast job at t=80 — the fixed
	// schedule's core interaction.
	vaeID := launch(t, n, "vae", dlmodel.VAEPyTorch())
	var mnistID string
	for sec := 1; sec <= 120; sec++ {
		clk.Advance(time.Second)
		if sec == 80 {
			mnistID = launch(t, n, "mnist", dlmodel.MNISTTensorFlow())
		}
		pacer.Step()
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

// quickJob is 20 ms of CPU work at one core.
type quickJob struct{ work float64 }

const quickWork = 0.02

func (j *quickJob) Advance(cpu float64) { j.work = min(j.work+cpu, quickWork) }
func (j *quickJob) CPUDemand() float64 {
	if j.Done() {
		return 0
	}
	return 1
}
func (j *quickJob) Done() bool               { return j.work >= quickWork }
func (j *quickJob) Remaining() float64       { return quickWork - j.work }
func (j *quickJob) Work() float64            { return j.work }
func (j *quickJob) EvalAt(w float64) float64 { return quickWork - w }

// Wall-clock smoke test: real time, miniature scale, the controller on a
// paced engine as in the worker. Nothing but the pacer settles the node:
// it wakes at the job's finish, and the start and exit each reach the
// controller through its inbox.
func TestNodeWallClockSmoke(t *testing.T) {
	n := livedock.NewNode(1.0)
	eng := sim.NewEngine()
	pacer := realtime.NewPacer(eng, n)
	ctrl := flowcon.NewController(flowcon.Config{Alpha: 0.05, InitialInterval: 10}, eng, n, nil)
	pacer.Listen(ctrl)
	ctrl.Start()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	paced := make(chan struct{})
	go func() {
		defer close(paced)
		pacer.Run(ctx)
	}()

	v, err := n.Launch(runtime.LaunchSpec{Name: "smoke", Workload: &quickJob{}})
	if err != nil {
		t.Fatal(err)
	}
	// RunningCount does not settle the node, so only the pacer's wake
	// at the finish can bring it to zero.
	for n.RunningCount() > 0 {
		select {
		case <-ctx.Done():
			t.Fatal("the pacer did not retire the finished job")
		case <-time.After(5 * time.Millisecond):
		}
	}
	// Posted after the exit's listener call, this runs in the wake that
	// runs the call or a later one, and Run returns only between wakes.
	flushed := make(chan struct{})
	pacer.Post(func() { close(flushed) })
	<-flushed
	cancel()
	<-paced
	if ctrl.Runs() != 2 {
		t.Fatalf("Algorithm 1 ran %d times, want the arrival and the departure (the tick is 10 s out)", ctrl.Runs())
	}
	if l, ok := ctrl.ListOf(v.ID); ok {
		t.Fatalf("finished container still in %v", l)
	}
	got, err := n.Lookup("smoke")
	if err != nil {
		t.Fatal(err)
	}
	if d := got.FinishedAt - got.StartedAt; d < quickWork-1e-9 || d > quickWork+1e-9 {
		t.Fatalf("job ran %v s, want exactly its %v s of work at a full core", d, quickWork)
	}
}

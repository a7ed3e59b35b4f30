package agent

import (
	"context"
	"errors"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/flowcon"
	"repro/internal/livedock"
	"repro/internal/realtime"
	"repro/internal/runtime"
)

// fakeClock drives the server-side node deterministically.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{now: time.Unix(0, 0)} }

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

// testAgent spins up an agent over a fake-clock node.
func testAgent(t *testing.T) (*Client, *fakeClock) {
	t.Helper()
	clk := newFakeClock()
	node := livedock.NewNodeWithClock(1.0, clk.Now)
	srv := httptest.NewServer(NewServer(node, 1.0).Handler())
	t.Cleanup(srv.Close)
	return NewClient(srv.URL, srv.Client()), clk
}

func TestPing(t *testing.T) {
	c, _ := testAgent(t)
	pong, err := c.Ping(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !pong.OK || pong.Capacity != 1.0 || pong.Running != 0 {
		t.Fatalf("pong = %+v", pong)
	}
}

func TestLaunchStatsStop(t *testing.T) {
	c, clk := testAgent(t)
	id, err := c.Launch(context.Background(), "job-a", "MNIST (Tensorflow)")
	if err != nil {
		t.Fatal(err)
	}
	if id == "" {
		t.Fatal("empty container id")
	}

	clk.Advance(10 * time.Second)
	stats := c.RunningStats()
	if len(stats) != 1 || stats[0].ID != id {
		t.Fatalf("stats = %+v", stats)
	}
	if stats[0].CPUSeconds <= 9.9 || stats[0].CPUSeconds >= 10.1 {
		t.Fatalf("cpu seconds = %v, want ~10", stats[0].CPUSeconds)
	}

	if err := c.SetCPULimit(id, 0.25); err != nil {
		t.Fatal(err)
	}
	list, err := c.Containers(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0].CPULimit != 0.25 || list[0].State != "running" {
		t.Fatalf("containers = %+v", list)
	}

	if err := c.Stop(context.Background(), id); err != nil {
		t.Fatal(err)
	}
	list, _ = c.Containers(context.Background())
	if list[0].State != "exited" {
		t.Fatalf("state after stop = %s", list[0].State)
	}
}

func TestErrorMapping(t *testing.T) {
	c, _ := testAgent(t)
	if _, err := c.Launch(context.Background(), "", "MNIST (Tensorflow)"); err == nil || !strings.Contains(err.Error(), "required") {
		t.Fatalf("empty name err = %v", err)
	}
	if _, err := c.Launch(context.Background(), "x", "NoSuchNet"); err == nil || !strings.Contains(err.Error(), "unknown model") {
		t.Fatalf("unknown model err = %v", err)
	}
	if err := c.SetCPULimit("ghost", 0.5); err == nil || !strings.Contains(err.Error(), "no such container") {
		t.Fatalf("missing container err = %v", err)
	}
	id, _ := c.Launch(context.Background(), "y", "RNN-GRU (Tensorflow)")
	if err := c.SetCPULimit(id, 7); err == nil || !strings.Contains(err.Error(), "limit") {
		t.Fatalf("bad limit err = %v", err)
	}
	if err := c.Stop(context.Background(), "ghost"); err == nil {
		t.Fatal("stop ghost succeeded")
	}
	if err := c.Stop(context.Background(), id); err != nil {
		t.Fatal(err)
	}
	if err := c.Stop(context.Background(), id); err == nil {
		t.Fatal("double stop succeeded")
	}
}

func TestClientDegradedOnDeadAgent(t *testing.T) {
	srv := httptest.NewServer(NewServer(livedock.NewNode(1.0), 1.0).Handler())
	c := NewClient(srv.URL, srv.Client())
	srv.Close()
	if stats := c.RunningStats(); stats != nil {
		t.Fatalf("stats from dead agent = %v", stats)
	}
	if err := c.SetCPULimit("x", 0.5); err == nil {
		t.Fatal("update against dead agent succeeded")
	}
}

// End-to-end over the wire: a manager-side FlowCon driver governs a remote
// worker through the HTTP agent — the Figure 2 topology with a real
// network boundary (loopback).
func TestRemoteFlowConDriver(t *testing.T) {
	c, clk := testAgent(t)

	vaeID, err := c.Launch(context.Background(), "vae", "VAE (Pytorch)")
	if err != nil {
		t.Fatal(err)
	}
	d := realtime.NewDriver(flowcon.Config{Alpha: 0.05, Beta: 2, InitialInterval: 20}, c)

	var mnistID string
	for step := 1; step <= 120; step++ {
		clk.Advance(time.Second)
		if step == 80 {
			mnistID, err = c.Launch(context.Background(), "mnist", "MNIST (Tensorflow)")
			if err != nil {
				t.Fatal(err)
			}
		}
		d.Step(float64(step))
	}
	if l, ok := d.ListOf(vaeID); !ok || l != flowcon.CompletingList {
		t.Fatalf("remote VAE in %v, want CL", l)
	}
	if l, ok := d.ListOf(mnistID); !ok || l != flowcon.NewList {
		t.Fatalf("remote MNIST in %v, want NL", l)
	}
	// The converged remote VAE carries a throttled limit set over HTTP.
	containers, err := c.Containers(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, ci := range containers {
		if ci.ID == vaeID && ci.CPULimit >= 0.5 {
			t.Fatalf("remote VAE limit = %v, want throttled", ci.CPULimit)
		}
	}
}

// Removing an exited container over DELETE /v1/containers/{id} frees its
// name for a new job; a running container cannot be removed, and the
// runtime sentinels survive the wire for errors.Is.
func TestRemoveFreesName(t *testing.T) {
	ctx := context.Background()
	c, _ := testAgent(t)
	st, err := c.Submit(ctx, SubmitRequest{Name: "phoenix", Model: "MNIST (Pytorch)"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Submit(ctx, SubmitRequest{Name: "phoenix", Model: "MNIST (Pytorch)"}); !errors.Is(err, runtime.ErrNameInUse) {
		t.Fatalf("duplicate of a running job = %v, want ErrNameInUse", err)
	}
	if err := c.SetCPULimit(st.ID, 7); !errors.Is(err, runtime.ErrBadLimit) {
		t.Fatalf("SetCPULimit(7) = %v, want ErrBadLimit", err)
	}
	if err := c.Remove(ctx, st.ID); err == nil || errors.Is(err, runtime.ErrNotFound) {
		t.Fatalf("Remove of a running container = %v, want a refusal", err)
	}
	if err := c.Stop(ctx, st.ID); err != nil {
		t.Fatal(err)
	}
	if err := c.Stop(ctx, st.ID); !errors.Is(err, runtime.ErrNotRunning) {
		t.Fatalf("double stop = %v, want ErrNotRunning", err)
	}
	if got, err := c.JobStatus(ctx, "phoenix"); err != nil || got.State != "exited" || got.Done {
		t.Fatalf("JobStatus after stop = %+v, %v; want exited, not done", got, err)
	}
	if err := c.Remove(ctx, st.ID); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	if err := c.Remove(ctx, st.ID); !errors.Is(err, runtime.ErrNotFound) {
		t.Fatalf("double remove = %v, want ErrNotFound", err)
	}
	if _, err := c.JobStatus(ctx, "phoenix"); !errors.Is(err, runtime.ErrNotFound) {
		t.Fatalf("JobStatus after remove = %v, want ErrNotFound", err)
	}
	if st, err := c.Submit(ctx, SubmitRequest{Name: "phoenix", Model: "MNIST (Pytorch)"}); err != nil || st.State != "running" {
		t.Fatalf("resubmit after remove = %+v, %v", st, err)
	}
}

func TestNewClientValidation(t *testing.T) {
	if c := NewClient("http://worker", nil); c.http.Timeout != DefaultTimeout {
		t.Errorf("default client timeout = %v, want %v", c.http.Timeout, DefaultTimeout)
	}
	defer func() {
		if recover() == nil {
			t.Error("empty base url did not panic")
		}
	}()
	NewClient("", nil)
}

package agent

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/livedock"
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
	st, err := c.Submit(context.Background(), SubmitRequest{Name: "job-a", Model: "MNIST (Tensorflow)", CPULimit: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	id := st.ID
	if id == "" {
		t.Fatal("empty container id")
	}

	clk.Advance(10 * time.Second)
	got, err := c.JobStatus(context.Background(), "job-a")
	if err != nil || got.ID != id {
		t.Fatalf("status = %+v, %v", got, err)
	}
	if got.CPUSeconds <= 9.9 || got.CPUSeconds >= 10.1 {
		t.Fatalf("cpu seconds = %v, want ~10", got.CPUSeconds)
	}
	if got.CPULimit != 0.25 || got.State != "running" {
		t.Fatalf("status = %+v, want running at limit 0.25", got)
	}

	if _, err := c.CancelJob(context.Background(), "job-a"); err != nil {
		t.Fatal(err)
	}
	if got, err := c.JobStatus(context.Background(), "job-a"); err != nil || got.ID != id || got.State != "exited" {
		t.Fatalf("status after stop = %+v, %v", got, err)
	}
}

func TestErrorMapping(t *testing.T) {
	ctx := context.Background()
	c, _ := testAgent(t)
	if _, err := c.Submit(ctx, SubmitRequest{Model: "MNIST (Tensorflow)"}); err == nil || !strings.Contains(err.Error(), "required") {
		t.Fatalf("empty name err = %v", err)
	}
	if _, err := c.Submit(ctx, SubmitRequest{Name: "x", Model: "NoSuchNet"}); err == nil || !strings.Contains(err.Error(), "unknown model") {
		t.Fatalf("unknown model err = %v", err)
	}
	if err := c.Remove(ctx, "ghost"); err == nil || !strings.Contains(err.Error(), "no such container") {
		t.Fatalf("missing container err = %v", err)
	}
	if _, err := c.Submit(ctx, SubmitRequest{Name: "y", Model: "RNN-GRU (Tensorflow)", CPULimit: 7}); err == nil || !strings.Contains(err.Error(), "limit") {
		t.Fatalf("bad limit err = %v", err)
	}
	if _, err := c.Submit(ctx, SubmitRequest{Name: "y", Model: "RNN-GRU (Tensorflow)"}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CancelJob(ctx, "ghost"); !errors.Is(err, runtime.ErrNotFound) {
		t.Fatalf("cancel ghost err = %v, want ErrNotFound", err)
	}
	if _, err := c.CancelJob(ctx, "y"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CancelJob(ctx, "y"); !errors.Is(err, runtime.ErrNotRunning) {
		t.Fatalf("cancel of an exited job err = %v, want ErrNotRunning", err)
	}
}

func TestClientDegradedOnDeadAgent(t *testing.T) {
	srv := httptest.NewServer(NewServer(livedock.NewNode(1.0), 1.0).Handler())
	c := NewClient(srv.URL, srv.Client())
	srv.Close()
	if _, err := c.Ping(context.Background()); err == nil {
		t.Fatal("ping of a dead agent succeeded")
	}
	var apiErr *APIError
	if _, err := c.Submit(context.Background(), SubmitRequest{Name: "x", Model: "MNIST (Pytorch)"}); err == nil || errors.As(err, &apiErr) {
		t.Fatalf("submit to a dead agent = %v, want a transport error", err)
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
	if _, err := c.Submit(ctx, SubmitRequest{Name: "phoenix-2", Model: "MNIST (Pytorch)", CPULimit: 7}); !errors.Is(err, runtime.ErrBadLimit) {
		t.Fatalf("submit at cpu_limit 7 = %v, want ErrBadLimit", err)
	}
	var apiErr *APIError
	if err := c.Remove(ctx, st.ID); !errors.As(err, &apiErr) || apiErr.Status != http.StatusConflict ||
		apiErr.Code != CodeRunning || !errors.Is(err, runtime.ErrRunning) {
		t.Fatalf("Remove of a running container = %v, want 409 %s wrapping ErrRunning", err, CodeRunning)
	}
	if _, err := c.CancelJob(ctx, "phoenix"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CancelJob(ctx, "phoenix"); !errors.Is(err, runtime.ErrNotRunning) {
		t.Fatalf("double cancel = %v, want ErrNotRunning", err)
	}
	if got, err := c.JobStatus(ctx, "phoenix"); err != nil || got.State != "exited" || got.Done {
		t.Fatalf("JobStatus after cancel = %+v, %v; want exited, not done", got, err)
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

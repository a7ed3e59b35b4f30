package agent

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/livedock"
	"repro/internal/runtime"
)

// limitedAgent spins up an agent with admission limits.
func limitedAgent(t *testing.T, maxRunning, queueDepth int) (*Client, *Server, *fakeClock) {
	t.Helper()
	clk := newFakeClock()
	node := livedock.NewNodeWithClock(1.0, clk.Now)
	s := NewServer(node, 1.0)
	s.SetAdmissionLimits(maxRunning, queueDepth)
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)
	return NewClient(srv.URL, srv.Client()), s, clk
}

// The managed jobs surface end-to-end: immediate admission, queueing
// behind a full slot, cancel from the queue, and automatic admission
// when a running container exits.
func TestJobsAdmissionFlow(t *testing.T) {
	ctx := context.Background()
	c, _, _ := limitedAgent(t, 1, 2)

	st, err := c.Submit(ctx, SubmitRequest{Name: "j1", Model: "MNIST (Pytorch)"})
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "running" || st.ID == "" {
		t.Fatalf("first submit = %+v, want running with an id", st)
	}
	st, err = c.Submit(ctx, SubmitRequest{Name: "j2", Model: "MNIST (Pytorch)"})
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "queued" || st.ID != "" {
		t.Fatalf("second submit = %+v, want queued without an id", st)
	}
	// Duplicate of a queued name is a conflict.
	if _, err := c.Submit(ctx, SubmitRequest{Name: "j2", Model: "MNIST (Pytorch)"}); !errors.Is(err, runtime.ErrNameInUse) {
		t.Fatalf("duplicate queued submit = %v, want ErrNameInUse", err)
	}
	st, err = c.JobStatus(ctx, "j2")
	if err != nil || st.State != "queued" {
		t.Fatalf("JobStatus(j2) = %+v, %v", st, err)
	}

	// Cancel from the queue, then refill it.
	if st, err = c.CancelJob(ctx, "j2"); err != nil || st.State != "exited" {
		t.Fatalf("CancelJob(j2) = %+v, %v", st, err)
	}
	if _, err := c.JobStatus(ctx, "j2"); !errors.Is(err, runtime.ErrNotFound) {
		t.Fatalf("status after cancel = %v, want ErrNotFound", err)
	}
	if st, err = c.Submit(ctx, SubmitRequest{Name: "j3", Model: "MNIST (Pytorch)"}); err != nil || st.State != "queued" {
		t.Fatalf("refill submit = %+v, %v", st, err)
	}
	pong, err := c.Ping(ctx)
	if err != nil || pong.Running != 1 || pong.Queued != 1 {
		t.Fatalf("pong = %+v, %v (want 1 running, 1 queued)", pong, err)
	}

	// Cancelling the running job stops it and frees the slot; the queued
	// job is admitted automatically off the exit hook.
	if st, err = c.CancelJob(ctx, "j1"); err != nil || st.State != "exited" {
		t.Fatalf("CancelJob(j1) = %+v, %v", st, err)
	}
	st, err = c.JobStatus(ctx, "j3")
	if err != nil || st.State != "running" || st.ID == "" {
		t.Fatalf("queued job after slot freed = %+v, %v (want auto-admitted)", st, err)
	}
}

// A job name is one path segment however it is spelt: status and cancel
// reach the named job, not one whose name is a prefix of it, and not a
// 404 or 405 from a path the name split.
func TestJobNamesAreEscapedInPaths(t *testing.T) {
	ctx := context.Background()
	c, _, _ := limitedAgent(t, 0, 0)
	ids := map[string]string{}
	names := []string{"a", "a?b", "x/y", "p%q", "s t"}
	for _, name := range names {
		st, err := c.Submit(ctx, SubmitRequest{Name: name, Model: "MNIST (Pytorch)"})
		if err != nil || st.State != "running" {
			t.Fatalf("submit %q = %+v, %v", name, st, err)
		}
		ids[name] = st.ID
	}
	for _, name := range names[1:] {
		if st, err := c.JobStatus(ctx, name); err != nil || st.Name != name || st.ID != ids[name] {
			t.Errorf("JobStatus(%q) = %+v, %v; want the job with id %s", name, st, err, ids[name])
		}
		if st, err := c.CancelJob(ctx, name); err != nil || st.Name != name || st.ID != ids[name] || st.State != "exited" {
			t.Errorf("CancelJob(%q) = %+v, %v; want the job with id %s exited", name, st, err, ids[name])
		}
	}
	if st, err := c.JobStatus(ctx, "a"); err != nil || st.State != "running" {
		t.Errorf("job a after the others' cancels = %+v, %v; want running", st, err)
	}
}

// A full queue rejects with ErrQueueFull (the 429 path), and a draining
// server rejects everything with ErrDraining (the 503 path).
func TestJobsBackpressureAndDrain(t *testing.T) {
	ctx := context.Background()
	c, s, _ := limitedAgent(t, 1, 1)
	for _, name := range []string{"a", "b"} {
		if _, err := c.Submit(ctx, SubmitRequest{Name: name, Model: "MNIST (Pytorch)"}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Submit(ctx, SubmitRequest{Name: "c", Model: "MNIST (Pytorch)"}); !errors.Is(err, runtime.ErrQueueFull) {
		t.Fatalf("overflow submit = %v, want ErrQueueFull", err)
	}
	var apiErr *APIError
	if err := errorAs(c.Submit(ctx, SubmitRequest{Name: "d", Model: "MNIST (Pytorch)"})); !errors.As(err, &apiErr) || apiErr.Status != 429 {
		t.Fatalf("overflow status = %v, want 429", err)
	}

	s.Drain()
	if _, err := c.Submit(ctx, SubmitRequest{Name: "e", Model: "MNIST (Pytorch)"}); !errors.Is(err, runtime.ErrDraining) {
		t.Fatalf("draining submit = %v, want ErrDraining", err)
	}
	if pong, err := c.Ping(ctx); err != nil || !pong.Draining {
		t.Fatalf("pong = %+v, %v (want draining)", pong, err)
	}
}

// errorAs drops the value from a (value, error) pair.
func errorAs(_ JobStatus, err error) error { return err }

// Submit validation: unknown models, missing names and the names "." and
// ".." are rejected without mutating state, whether the job would start
// or queue. The mux cleans "." and ".." out of every path, so no status
// or cancel request could reach such a job afterwards.
func TestJobsSubmitValidation(t *testing.T) {
	ctx := context.Background()
	c, _, _ := limitedAgent(t, 1, 4)
	rejected := func(req SubmitRequest) {
		t.Helper()
		var apiErr *APIError
		if _, err := c.Submit(ctx, req); !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadRequest || apiErr.Code != CodeBadRequest {
			t.Fatalf("submit %+v = %v, want 400 %s", req, err, CodeBadRequest)
		}
	}
	rejected(SubmitRequest{Name: "x", Model: "NoSuchNet"})
	rejected(SubmitRequest{Model: "MNIST (Pytorch)"})
	rejected(SubmitRequest{Name: ".", Model: "MNIST (Pytorch)"}) // a free slot: would start
	if pong, _ := c.Ping(ctx); pong.Running != 0 {
		t.Fatalf("failed submits left %d running", pong.Running)
	}
	if _, err := c.Submit(ctx, SubmitRequest{Name: "a", Model: "MNIST (Pytorch)"}); err != nil {
		t.Fatal(err)
	}
	rejected(SubmitRequest{Name: "..", Model: "MNIST (Pytorch)"}) // the slot is taken: would queue
	if pong, _ := c.Ping(ctx); pong.Running != 1 || pong.Queued != 0 {
		t.Fatalf("running %d, queued %d; want only job a running", pong.Running, pong.Queued)
	}
}

// PingRetry returns immediately on a live server and gives up with the
// last error after bounded attempts on a dead one.
func TestPingRetry(t *testing.T) {
	ctx := context.Background()
	c, _, _ := limitedAgent(t, 0, 0)
	if _, err := c.PingRetry(ctx, 3); err != nil {
		t.Fatalf("PingRetry on live server: %v", err)
	}

	srv := httptest.NewServer(NewServer(livedock.NewNode(1.0), 1.0).Handler())
	dead := NewClient(srv.URL, srv.Client())
	srv.Close()
	if _, err := dead.PingRetry(ctx, 2); err == nil {
		t.Fatal("PingRetry on dead server succeeded")
	}

	canceled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := dead.PingRetry(canceled, 5); !errors.Is(err, context.Canceled) {
		t.Fatalf("PingRetry with canceled ctx = %v, want context.Canceled", err)
	}
}

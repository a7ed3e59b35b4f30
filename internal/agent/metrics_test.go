package agent

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/livedock"
	"repro/internal/runtime"
)

// metricsAgent spins up an agent with admission limits and a pinned
// metrics clock, so latency observations are exactly zero and the
// uptime gauge is deterministic — the golden test depends on both.
func metricsAgent(t *testing.T, maxRunning, queueDepth int) (*Client, *Server, *fakeClock) {
	t.Helper()
	clk := newFakeClock()
	node := livedock.NewNodeWithClock(1.0, clk.Now)
	s := NewServer(node, 1.0)
	s.SetAdmissionLimits(maxRunning, queueDepth)
	s.met.clock = clk.Now
	s.met.startedAt = clk.Now()
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)
	return NewClient(srv.URL, srv.Client()), s, clk
}

// metricValue extracts the value of an exact sample line (name plus any
// label set, e.g. `flowcon_agent_submits_total`).
func metricValue(t *testing.T, text, sample string) float64 {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(line, sample+" "); ok {
			var v float64
			if _, err := fmt.Sscanf(rest, "%g", &v); err != nil {
				t.Fatalf("parsing %q value %q: %v", sample, rest, err)
			}
			return v
		}
	}
	t.Fatalf("sample %q not found in scrape:\n%s", sample, text)
	return 0
}

// The full exposition is pinned byte for byte: a known request sequence
// against a pinned clock must render exactly this document. Breaking
// this golden means the scrape contract changed — update the docs in
// docs/OBSERVABILITY.md in the same commit.
func TestMetricsGoldenFormat(t *testing.T) {
	ctx := context.Background()
	c, _, clk := metricsAgent(t, 1, 1)
	clk.Advance(42 * time.Second)

	// 201 launched, 202 queued, 429 queue_full, 400 bad_request, 404 not_found.
	if _, err := c.Submit(ctx, SubmitRequest{Name: "a", Model: "MNIST (Tensorflow)"}); err != nil {
		t.Fatal(err)
	}
	if st, err := c.Submit(ctx, SubmitRequest{Name: "b", Model: "MNIST (Pytorch)"}); err != nil || st.State != "queued" {
		t.Fatalf("submit b = %+v, %v", st, err)
	}
	if _, err := c.Submit(ctx, SubmitRequest{Name: "c", Model: "MNIST (Pytorch)"}); !errors.Is(err, runtime.ErrQueueFull) {
		t.Fatalf("submit c = %v, want ErrQueueFull", err)
	}
	if _, err := c.Submit(ctx, SubmitRequest{Name: "d", Model: "NoSuchNet"}); err == nil {
		t.Fatal("bad model accepted")
	}
	if _, err := c.JobStatus(ctx, "ghost"); !errors.Is(err, runtime.ErrNotFound) {
		t.Fatalf("ghost status = %v, want ErrNotFound", err)
	}

	text, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	want := `# HELP flowcon_agent_uptime_seconds Seconds since the agent started serving.
# TYPE flowcon_agent_uptime_seconds gauge
flowcon_agent_uptime_seconds 42
# HELP flowcon_agent_capacity_cores Node CPU capacity in cores.
# TYPE flowcon_agent_capacity_cores gauge
flowcon_agent_capacity_cores 1
# HELP flowcon_agent_jobs_running Containers currently running.
# TYPE flowcon_agent_jobs_running gauge
flowcon_agent_jobs_running 1
# HELP flowcon_agent_jobs_queued Submissions waiting in the admission queue.
# TYPE flowcon_agent_jobs_queued gauge
flowcon_agent_jobs_queued 1
# HELP flowcon_agent_draining 1 while the agent rejects new submissions for shutdown.
# TYPE flowcon_agent_draining gauge
flowcon_agent_draining 0
# HELP flowcon_agent_containers_exited_total Containers retired on this node.
# TYPE flowcon_agent_containers_exited_total counter
flowcon_agent_containers_exited_total 0
# HELP flowcon_agent_submits_total Accepted job submissions (launched or queued).
# TYPE flowcon_agent_submits_total counter
flowcon_agent_submits_total 2
# HELP flowcon_agent_submits_queued_total Accepted submissions that entered the queue.
# TYPE flowcon_agent_submits_queued_total counter
flowcon_agent_submits_queued_total 1
# HELP flowcon_agent_submit_rejections_total Admission refusals by reason.
# TYPE flowcon_agent_submit_rejections_total counter
flowcon_agent_submit_rejections_total{reason="draining"} 0
flowcon_agent_submit_rejections_total{reason="queue_full"} 1
# HELP flowcon_agent_errors_total Error envelopes written, by code.
# TYPE flowcon_agent_errors_total counter
flowcon_agent_errors_total{code="bad_request"} 1
flowcon_agent_errors_total{code="not_found"} 1
flowcon_agent_errors_total{code="queue_full"} 1
# HELP flowcon_agent_submit_latency_seconds Accepted-submission handling latency.
# TYPE flowcon_agent_submit_latency_seconds summary
flowcon_agent_submit_latency_seconds{quantile="0.5"} 0
flowcon_agent_submit_latency_seconds{quantile="0.95"} 0
flowcon_agent_submit_latency_seconds{quantile="0.99"} 0
flowcon_agent_submit_latency_seconds_sum 0
flowcon_agent_submit_latency_seconds_count 2
`
	if text != want {
		t.Fatalf("scrape mismatch:\n--- got ---\n%s\n--- want ---\n%s", text, want)
	}

	// The scrape surface advertises the Prometheus text version.
	resp, err := http.Get(c.base + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Fatalf("Content-Type = %q", ct)
	}
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		t.Fatal(err)
	}
}

// Counters must track a submit/cancel/error sequence exactly: exits via
// the OnExit hook, errors by code, and the submit counters staying
// monotone through queue promotion.
func TestMetricsCounterCorrectness(t *testing.T) {
	ctx := context.Background()
	c, _, _ := metricsAgent(t, 1, 2)

	if _, err := c.Submit(ctx, SubmitRequest{Name: "a", Model: "MNIST (Tensorflow)"}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Submit(ctx, SubmitRequest{Name: "b", Model: "MNIST (Pytorch)"}); err != nil {
		t.Fatal(err)
	}
	// Cancelling a stops it and promotes b from the queue; neither motion
	// re-counts a submission.
	if _, err := c.CancelJob(ctx, "a"); err != nil {
		t.Fatal(err)
	}
	text, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if v := metricValue(t, text, "flowcon_agent_submits_total"); v != 2 {
		t.Fatalf("submits_total = %g, want 2", v)
	}
	if v := metricValue(t, text, "flowcon_agent_submits_queued_total"); v != 1 {
		t.Fatalf("submits_queued_total = %g, want 1", v)
	}
	if v := metricValue(t, text, "flowcon_agent_containers_exited_total"); v != 1 {
		t.Fatalf("containers_exited_total = %g, want 1", v)
	}
	if v := metricValue(t, text, "flowcon_agent_jobs_running"); v != 1 {
		t.Fatalf("jobs_running = %g, want 1 (b promoted)", v)
	}
	if v := metricValue(t, text, "flowcon_agent_jobs_queued"); v != 0 {
		t.Fatalf("jobs_queued = %g, want 0", v)
	}
	if v := metricValue(t, text, `flowcon_agent_submit_latency_seconds_count`); v != 2 {
		t.Fatalf("latency count = %g, want 2", v)
	}

	// Error codes accumulate independently: two not_found, one not_running.
	if _, err := c.JobStatus(ctx, "ghost"); !errors.Is(err, runtime.ErrNotFound) {
		t.Fatalf("ghost = %v", err)
	}
	if _, err := c.JobStatus(ctx, "ghost"); !errors.Is(err, runtime.ErrNotFound) {
		t.Fatalf("ghost = %v", err)
	}
	if _, err := c.CancelJob(ctx, "a"); err == nil {
		t.Fatal("double cancel succeeded")
	}
	text, err = c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if v := metricValue(t, text, `flowcon_agent_errors_total{code="not_found"}`); v != 2 {
		t.Fatalf("not_found errors = %g, want 2", v)
	}
	if v := metricValue(t, text, `flowcon_agent_errors_total{code="not_running"}`); v != 1 {
		t.Fatalf("not_running errors = %g, want 1", v)
	}
}

// Healthz reports readiness both ways: 200 with Ready while serving,
// 503 with the same shaped body (decoded, not an error) once draining,
// and Backpressure exactly when the queue is at depth.
func TestHealthzReadinessAndBackpressure(t *testing.T) {
	ctx := context.Background()
	c, s, clk := metricsAgent(t, 1, 1)
	clk.Advance(5 * time.Second)

	h, status, err := healthz(c)
	if err != nil || status != http.StatusOK {
		t.Fatalf("idle healthz: status %d, %v", status, err)
	}
	if !h.OK || !h.Ready || h.Draining || h.Backpressure {
		t.Fatalf("idle healthz = %+v", h)
	}
	if h.UptimeSec != 5 {
		t.Fatalf("uptime = %g, want 5", h.UptimeSec)
	}
	if h.QueueDepth != 1 || h.MaxRunning != 1 {
		t.Fatalf("limits = %+v", h)
	}

	// Fill the running slot and the queue: backpressure.
	if _, err := c.Submit(ctx, SubmitRequest{Name: "a", Model: "MNIST (Tensorflow)"}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Submit(ctx, SubmitRequest{Name: "b", Model: "MNIST (Pytorch)"}); err != nil {
		t.Fatal(err)
	}
	h, status, err = healthz(c)
	if err != nil || status != http.StatusOK {
		t.Fatalf("full healthz: status %d, %v", status, err)
	}
	if !h.Backpressure || h.Running != 1 || h.Queued != 1 {
		t.Fatalf("full healthz = %+v", h)
	}

	// Draining flips readiness and the status code to 503, but the body
	// still decodes.
	s.Drain()
	h, status, err = healthz(c)
	if err != nil {
		t.Fatal(err)
	}
	if status != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz status = %d, want 503", status)
	}
	if h.Ready || !h.Draining {
		t.Fatalf("draining healthz = %+v", h)
	}
}

// healthz reads GET /v1/healthz, which no client method wraps, decoding
// the body whatever the status: a draining agent answers 503 with the
// full report.
func healthz(c *Client) (HealthResponse, int, error) {
	var h HealthResponse
	resp, err := c.http.Get(c.base + "/v1/healthz")
	if err != nil {
		return h, 0, err
	}
	defer resp.Body.Close()
	return h, resp.StatusCode, json.NewDecoder(resp.Body).Decode(&h)
}

// Scrapes race submissions: run with -race to pin that the metrics
// path never touches server or node state without its lock.
func TestMetricsConcurrentScrapes(t *testing.T) {
	ctx := context.Background()
	c, _, _ := metricsAgent(t, 2, 64)

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				name := fmt.Sprintf("job-%d-%d", g, i)
				if _, err := c.Submit(ctx, SubmitRequest{Name: name, Model: "MNIST (Pytorch)"}); err != nil {
					t.Errorf("submit %s: %v", name, err)
					return
				}
			}
		}(g)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				if _, err := c.Metrics(ctx); err != nil {
					t.Errorf("scrape: %v", err)
					return
				}
				if _, _, err := healthz(c); err != nil {
					t.Errorf("healthz: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()

	text, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if v := metricValue(t, text, "flowcon_agent_submits_total"); v != 32 {
		t.Fatalf("submits_total = %g, want 32", v)
	}
}

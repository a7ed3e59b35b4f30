package agent

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"time"

	"repro/internal/runtime"
)

// DefaultTimeout bounds each HTTP request when the caller supplies no
// http.Client of its own. Per-call contexts tighten it further; nothing
// the client does can hang past this.
const DefaultTimeout = 5 * time.Second

// APIError is a non-2xx agent response. It unwraps to the runtime
// package's sentinel matching the server's error code, so
// errors.Is(err, runtime.ErrQueueFull) works across the wire.
type APIError struct {
	// Status is the HTTP status code.
	Status int
	// Code is the stable machine-readable slug ("" on old servers).
	Code string
	// Message is the server's human-readable error.
	Message string
	// Path is the request path.
	Path string
}

// Error implements error.
func (e *APIError) Error() string {
	return fmt.Sprintf("agent: %s: %s", e.Path, e.Message)
}

// Unwrap maps the wire code back to the runtime sentinel.
func (e *APIError) Unwrap() error {
	switch e.Code {
	case CodeNotFound:
		return runtime.ErrNotFound
	case CodeNotRunning:
		return runtime.ErrNotRunning
	case CodeRunning:
		return runtime.ErrRunning
	case CodeNameInUse:
		return runtime.ErrNameInUse
	case CodeBadLimit:
		return runtime.ErrBadLimit
	case CodeQueueFull:
		return runtime.ErrQueueFull
	case CodeDraining:
		return runtime.ErrDraining
	default:
		return nil
	}
}

// Client talks to a worker agent over HTTP: it submits, watches and
// cancels jobs, removes exited containers and scrapes the metrics. Every
// call is one round trip with no retry; PingRetry alone waits for a
// worker that is still booting.
type Client struct {
	base string
	http *http.Client
}

// NewClient creates a client for the agent at base (e.g.
// "http://10.0.0.7:7070"). A nil httpClient uses a DefaultTimeout
// default, so no call can hang forever even without a per-call context.
func NewClient(base string, httpClient *http.Client) *Client {
	if base == "" {
		panic("agent: empty base url")
	}
	if httpClient == nil {
		httpClient = &http.Client{Timeout: DefaultTimeout}
	}
	return &Client{base: base, http: httpClient}
}

// Ping checks agent liveness.
func (c *Client) Ping(ctx context.Context) (PingResponse, error) {
	var out PingResponse
	err := c.get(ctx, "/v1/ping", &out)
	return out, err
}

// PingRetry pings with bounded exponential backoff (100ms doubling,
// capped at 2s) until the agent answers, attempts are exhausted, or the
// context ends — the connect-to-a-worker-that-is-still-booting path.
func (c *Client) PingRetry(ctx context.Context, attempts int) (PingResponse, error) {
	if attempts < 1 {
		attempts = 1
	}
	backoff := 100 * time.Millisecond
	var lastErr error
	for i := 0; i < attempts; i++ {
		if i > 0 {
			select {
			case <-ctx.Done():
				return PingResponse{}, fmt.Errorf("agent: ping retry: %w (last: %v)", ctx.Err(), lastErr)
			case <-time.After(backoff):
			}
			if backoff *= 2; backoff > 2*time.Second {
				backoff = 2 * time.Second
			}
		}
		pong, err := c.Ping(ctx)
		if err == nil {
			return pong, nil
		}
		lastErr = err
	}
	return PingResponse{}, fmt.Errorf("agent: ping failed after %d attempts: %w", attempts, lastErr)
}

// Remove deletes an exited remote container by id.
func (c *Client) Remove(ctx context.Context, id string) error {
	return c.del(ctx, "/v1/containers/"+url.PathEscape(id))
}

// Metrics fetches the agent's Prometheus text exposition verbatim — the
// scrape surface, not a JSON endpoint, so it bypasses the JSON decode
// path and returns the raw body.
func (c *Client) Metrics(ctx context.Context) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/metrics", nil)
	if err != nil {
		return "", fmt.Errorf("agent: GET /v1/metrics: %w", err)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return "", fmt.Errorf("agent: GET /v1/metrics: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", &APIError{Status: resp.StatusCode, Message: resp.Status, Path: "/v1/metrics"}
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", fmt.Errorf("agent: reading /v1/metrics: %w", err)
	}
	return string(raw), nil
}

// Submit admits a job through the managed surface. A free slot launches
// immediately (state "running"); a full worker queues it (state
// "queued"); a full queue fails with runtime.ErrQueueFull, a draining
// agent with runtime.ErrDraining — both reachable via errors.Is.
func (c *Client) Submit(ctx context.Context, req SubmitRequest) (JobStatus, error) {
	var out JobStatus
	err := c.post(ctx, "/v1/jobs", req, &out)
	return out, err
}

// JobStatus fetches one job's status by name.
func (c *Client) JobStatus(ctx context.Context, name string) (JobStatus, error) {
	var out JobStatus
	err := c.get(ctx, "/v1/jobs/"+url.PathEscape(name), &out)
	return out, err
}

// CancelJob dequeues a queued job or stops its running container.
func (c *Client) CancelJob(ctx context.Context, name string) (JobStatus, error) {
	var out JobStatus
	err := c.post(ctx, "/v1/jobs/"+url.PathEscape(name)+"/cancel", struct{}{}, &out)
	return out, err
}

// do performs one request with a JSON body and decodes the response.
func (c *Client) do(ctx context.Context, method, path string, body, out any) error {
	var rd io.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			return fmt.Errorf("agent: encoding %s: %w", path, err)
		}
		rd = bytes.NewReader(raw)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return fmt.Errorf("agent: %s %s: %w", method, path, err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.http.Do(req)
	if err != nil {
		return fmt.Errorf("agent: %s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	return decode(path, resp, out)
}

// get performs a GET and decodes the JSON response into out.
func (c *Client) get(ctx context.Context, path string, out any) error {
	return c.do(ctx, http.MethodGet, path, nil, out)
}

// post performs a POST with a JSON body and decodes the response.
func (c *Client) post(ctx context.Context, path string, body, out any) error {
	return c.do(ctx, http.MethodPost, path, body, out)
}

// del performs a DELETE.
func (c *Client) del(ctx context.Context, path string) error {
	return c.do(ctx, http.MethodDelete, path, nil, nil)
}

// decode maps non-2xx responses to *APIError carrying the server's
// message and code.
func decode(path string, resp *http.Response, out any) error {
	if resp.StatusCode >= 300 {
		var eb errorBody
		_ = json.NewDecoder(resp.Body).Decode(&eb)
		if eb.Error == "" {
			eb.Error = resp.Status
		}
		return &APIError{Status: resp.StatusCode, Code: eb.Code, Message: eb.Error, Path: path}
	}
	if out == nil {
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("agent: decoding %s response: %w", path, err)
	}
	return nil
}

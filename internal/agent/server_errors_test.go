package agent

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/livedock"
)

// rawAgent spins up an agent and returns its base URL plus the clock, for
// tests that need to hit the wire below the Client abstraction.
func rawAgent(t *testing.T) (string, *http.Client, *fakeClock) {
	t.Helper()
	clk := newFakeClock()
	node := livedock.NewNodeWithClock(1.0, clk.Now)
	srv := httptest.NewServer(NewServer(node, 1.0).Handler())
	t.Cleanup(srv.Close)
	return srv.URL, srv.Client(), clk
}

// postEnvelope sends a raw body and returns the status plus the decoded
// error envelope (zero when the body is not an error envelope).
func postEnvelope(t *testing.T, hc *http.Client, url, body string) (int, errorBody) {
	t.Helper()
	resp, err := hc.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var env errorBody
	_ = json.Unmarshal(raw, &env)
	return resp.StatusCode, env
}

// post is postEnvelope reduced to the status and the error message.
func post(t *testing.T, hc *http.Client, url, body string) (int, string) {
	t.Helper()
	status, env := postEnvelope(t, hc, url, body)
	return status, env.Error
}

// Malformed JSON bodies are rejected with 400 and a JSON error envelope,
// never a panic or a silent 200. The rows post to /v1/jobs, the one route
// that takes a body.
func TestMalformedJSONBodies(t *testing.T) {
	url, hc, _ := rawAgent(t)
	cases := []struct {
		name, path, body string
	}{
		{"launch truncated", "/v1/jobs", `{"name":"x","model":`},
		{"launch not json", "/v1/jobs", `not json at all`},
		{"launch wrong types", "/v1/jobs", `{"name":7,"model":true}`},
		{"launch empty body", "/v1/jobs", ``},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, msg := post(t, hc, url+tc.path, tc.body)
			if status != http.StatusBadRequest {
				t.Fatalf("status %d, want 400", status)
			}
			if msg == "" {
				t.Fatal("error envelope missing")
			}
		})
	}
}

// Unknown container IDs map to 404 on remove, and the path variable is
// taken verbatim (no normalization surprises).
func TestUnknownContainerIDs(t *testing.T) {
	url, hc, _ := rawAgent(t)
	for _, id := range []string{"ghost", "worker-0-c99", "%20", "a+b"} {
		req, err := http.NewRequest(http.MethodDelete, url+"/v1/containers/"+id, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := hc.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("remove %q: status %d, want 404", id, resp.StatusCode)
		}
	}
}

// Wrong methods on the routes 405 via the method-aware mux patterns.
func TestMethodNotAllowed(t *testing.T) {
	url, hc, _ := rawAgent(t)
	for _, tc := range []struct{ method, path string }{
		{http.MethodDelete, "/v1/containers"},
		{http.MethodPost, "/v1/containers"},
		{http.MethodPost, "/v1/ping"},
		{http.MethodGet, "/v1/jobs"},
	} {
		req, err := http.NewRequest(tc.method, url+tc.path, bytes.NewReader(nil))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := hc.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("%s %s: status %d, want 405", tc.method, tc.path, resp.StatusCode)
		}
	}
}

// Error responses carry the JSON content type so clients can always
// decode the envelope.
func TestErrorResponsesAreJSON(t *testing.T) {
	url, hc, _ := rawAgent(t)
	resp, err := hc.Post(url+"/v1/jobs", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type %q, want application/json", ct)
	}
}

// Submits, pings, status reads and cancels race across many containers;
// the node must stay consistent (every launch visible exactly once, at
// the limit it was submitted with).
func TestConcurrentMixedTraffic(t *testing.T) {
	url, hc, clk := rawAgent(t)
	const n = 12
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := NewClient(url, hc)
			name := fmt.Sprintf("job-%d", i)
			if _, err := c.Submit(context.Background(), SubmitRequest{Name: name, Model: "RNN-GRU (Tensorflow)", CPULimit: 0.25}); err != nil {
				t.Errorf("submit %d: %v", i, err)
				return
			}
			if _, err := c.Ping(context.Background()); err != nil {
				t.Errorf("ping %d: %v", i, err)
			}
			if _, err := c.JobStatus(context.Background(), name); err != nil {
				t.Errorf("status %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	clk.Advance(time.Second)
	c := NewClient(url, hc)
	list := containers(t, c)
	if len(list) != n {
		t.Fatalf("%d containers visible, want %d", len(list), n)
	}
	seen := map[string]bool{}
	for _, info := range list {
		if seen[info.ID] {
			t.Fatalf("container %s listed twice", info.ID)
		}
		seen[info.ID] = true
		if info.CPULimit != 0.25 {
			t.Fatalf("container %s limit %g, want 0.25", info.ID, info.CPULimit)
		}
	}
	// Concurrent cancels: every cancel must stop its job exactly once.
	var stopWG sync.WaitGroup
	for i := 0; i < n; i++ {
		stopWG.Add(1)
		go func(name string) {
			defer stopWG.Done()
			if _, err := c.CancelJob(context.Background(), name); err != nil {
				t.Errorf("cancel %s: %v", name, err)
			}
		}(fmt.Sprintf("job-%d", i))
	}
	stopWG.Wait()
	if pong, err := c.Ping(context.Background()); err != nil || pong.Running != 0 {
		t.Fatalf("after stops: pong=%+v err=%v", pong, err)
	}
}

// postCode is postEnvelope reduced to the status and the error code.
func postCode(t *testing.T, hc *http.Client, url, body string) (int, string) {
	t.Helper()
	status, env := postEnvelope(t, hc, url, body)
	return status, env.Code
}

// A cpu_limit outside (0,1] is refused at the edge with the same status
// and code whether the job would have launched at once or queued; it used
// to be answered 202 when queued and surface later as state "failed".
func TestSubmitBadLimitSameAnswerQueuedOrNot(t *testing.T) {
	for _, tc := range []struct {
		name       string
		maxRunning int
		okStatus   int
	}{
		{"launches immediately", 0, http.StatusCreated},
		{"queues behind a full slot", 1, http.StatusAccepted},
	} {
		t.Run(tc.name, func(t *testing.T) {
			node := livedock.NewNodeWithClock(1.0, newFakeClock().Now)
			s := NewServer(node, 1.0)
			s.SetAdmissionLimits(tc.maxRunning, 4)
			srv := httptest.NewServer(s.Handler())
			defer srv.Close()
			hc, jobs := srv.Client(), srv.URL+"/v1/jobs"
			if tc.maxRunning > 0 {
				if status, _ := postCode(t, hc, jobs, `{"name":"filler","model":"MNIST (Pytorch)"}`); status != http.StatusCreated {
					t.Fatalf("filler submit: status %d", status)
				}
			}
			for _, limit := range []string{"-0.5", "1.5"} {
				body := `{"name":"bad","model":"MNIST (Pytorch)","cpu_limit":` + limit + `}`
				if status, code := postCode(t, hc, jobs, body); status != http.StatusConflict || code != CodeBadLimit {
					t.Fatalf("cpu_limit %s: %d %q, want 409 %q", limit, status, code, CodeBadLimit)
				}
			}
			resp, err := hc.Get(jobs + "/bad")
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusNotFound {
				t.Fatalf("refused job is visible: status %d, want 404", resp.StatusCode)
			}
			// 0 still means "default 1.0" on both paths.
			if status, _ := postCode(t, hc, jobs, `{"name":"dflt","model":"MNIST (Pytorch)","cpu_limit":0}`); status != tc.okStatus {
				t.Fatalf("cpu_limit 0: status %d, want %d", status, tc.okStatus)
			}
			// A draining agent refuses everything alike, as it always has.
			s.Drain()
			body := `{"name":"late","model":"MNIST (Pytorch)","cpu_limit":1.5}`
			if status, code := postCode(t, hc, jobs, body); status != http.StatusServiceUnavailable || code != CodeDraining {
				t.Fatalf("bad limit while draining: %d %q, want 503 %q", status, code, CodeDraining)
			}
		})
	}
}

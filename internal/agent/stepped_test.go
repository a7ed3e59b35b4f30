package agent

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/flowcon"
	"repro/internal/livedock"
	"repro/internal/realtime"
)

// stepped is the live stack in one process under one fake clock: a
// livedock node behind NewServer, a Client whose transport calls the
// server's handler directly, and a realtime.Driver polling through that
// client. Nothing runs on a goroutine, opens a socket or reads the wall
// clock, yet every request goes through the real /v1 encoding, so a run
// is a deterministic simulation of the deployed manager and worker.
type stepped struct {
	t      *testing.T
	clk    *fakeClock
	node   *livedock.Node
	client *Client
	driver *realtime.Driver
	poll   time.Duration
	// now is the driver's clock: time since the harness started.
	now time.Duration

	// handler serves the worker's /v1 routes; nil while the worker is
	// down, when every request fails as a refused connection would.
	handler http.Handler
	// drop, when set, fails the next request to that path while the
	// worker stays up.
	drop string
}

var (
	errWorkerDown = errors.New("dial tcp: connection refused")
	errDropped    = errors.New("read tcp: connection reset by peer")
)

// newStepped boots a worker and a driver with the given config that
// polls every poll period.
func newStepped(t *testing.T, cfg flowcon.Config, poll time.Duration) *stepped {
	t.Helper()
	s := &stepped{t: t, clk: newFakeClock(), poll: poll}
	s.boot()
	s.client = NewClient("http://worker", &http.Client{Transport: s})
	s.driver = realtime.NewDriver(cfg, s.client)
	return s
}

// RoundTrip implements http.RoundTripper by serving the request with the
// current worker's handler.
func (s *stepped) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Body != nil {
		defer req.Body.Close()
	}
	switch {
	case s.handler == nil:
		return nil, errWorkerDown
	case req.URL.Path == s.drop:
		s.drop = ""
		return nil, errDropped
	}
	rec := httptest.NewRecorder()
	s.handler.ServeHTTP(rec, req.Clone(req.Context()))
	return rec.Result(), nil
}

// boot starts a fresh worker on the shared clock: a new node, empty and
// counting its containers from one again, behind a new server.
func (s *stepped) boot() {
	s.node = livedock.NewNodeWithClock(1.0, s.clk.Now)
	s.handler = NewServer(s.node, 1.0).Handler()
}

// crash takes the worker down, and every container on it with it.
func (s *stepped) crash() { s.node, s.handler = nil, nil }

// step advances the clock by one poll period, settles the worker if it
// is up and runs the driver's poll. It reports whether Algorithm 1 ran.
func (s *stepped) step() bool {
	s.clk.Advance(s.poll)
	s.now += s.poll
	if s.node != nil {
		s.node.Settle()
	}
	return s.driver.Step(s.now.Seconds())
}

// steps runs n polls.
func (s *stepped) steps(n int) {
	for i := 0; i < n; i++ {
		s.step()
	}
}

// submit admits one job through /v1/jobs and returns its container id.
func (s *stepped) submit(name, model string) string {
	s.t.Helper()
	st, err := s.client.Submit(context.Background(), SubmitRequest{Name: name, Model: model})
	if err != nil || st.State != "running" {
		s.t.Fatalf("submit %s: %+v, %v", name, st, err)
	}
	return st.ID
}

// steppedJobs are three long runs that share the worker's one core without any
// finishing inside a test.
var steppedJobs = []struct{ name, model string }{
	{"vae-pt", "VAE (Pytorch)"},
	{"vae-tf", "VAE (Tensorflow)"},
	{"lstm", "LSTM-CRF (Pytorch)"},
}

// submitAll submits steppedJobs and returns their container ids.
func (s *stepped) submitAll() []string {
	ids := make([]string, len(steppedJobs))
	for i, j := range steppedJobs {
		ids[i] = s.submit(j.name, j.model)
	}
	return ids
}

var steppedConfig = flowcon.Config{Alpha: 0.05, Beta: 2, InitialInterval: 20}

// A worker restart under a live manager. The restart takes the worker's
// containers with it, so there is nothing for a retry to recover: the
// manager's next poll is its retry, and Algorithm 1's lists prune to what
// the new worker runs. Whether a poll lands inside the downtime or the
// restart falls between two polls, the jobs resubmitted under the same
// names come back as new containers and the driver keeps running.
func TestManagerRidesThroughWorkerRestart(t *testing.T) {
	for _, tc := range []struct {
		name     string
		observed bool
	}{
		{"poll sees the downtime", true},
		{"restart between polls", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := newStepped(t, steppedConfig, time.Second)
			old := s.submitAll()
			s.steps(60)
			for _, id := range old {
				if _, ok := s.driver.ListOf(id); !ok {
					t.Fatalf("container %s unmanaged before the restart", id)
				}
			}
			runs := s.driver.Runs()

			s.crash()
			if tc.observed {
				if !s.step() {
					t.Fatal("the poll that found the worker down did not run Algorithm 1")
				}
				for _, id := range old {
					if l, ok := s.driver.ListOf(id); ok {
						t.Fatalf("dead container %s still in %v", id, l)
					}
				}
			}
			s.boot()
			fresh := s.submitAll()
			s.steps(45)

			if got := s.driver.Runs(); got < runs+2 {
				t.Fatalf("Algorithm 1 ran %d times after the restart, want at least 2", got-runs)
			}
			for i, j := range steppedJobs {
				st, err := s.client.JobStatus(context.Background(), j.name)
				if err != nil || st.State != "running" || st.ID != fresh[i] {
					t.Fatalf("job %s after restart = %+v, %v; want running as %s", j.name, st, err, fresh[i])
				}
				if fresh[i] == old[i] {
					t.Fatalf("restarted worker reissued container id %s", old[i])
				}
				if l, ok := s.driver.ListOf(old[i]); ok {
					t.Fatalf("dead container %s still in %v", old[i], l)
				}
				if _, ok := s.driver.ListOf(fresh[i]); !ok {
					t.Fatalf("new container %s unmanaged", fresh[i])
				}
			}
		})
	}
}

// One /v1/stats poll fails while the worker stays up. Client.RunningStats
// reports the failure as an empty pool, so the driver reads a pool change:
// the interval resets and the lists prune. The next poll finds the same
// containers and they re-enter as new. This is a known limit, not a
// retry's job: telling "no containers" from "no answer" needs an error
// result on flowcon.Runtime.
func TestDroppedStatsPollRestartsLists(t *testing.T) {
	s := newStepped(t, steppedConfig, time.Second)
	ids := s.submitAll()
	s.steps(140)
	for _, id := range ids {
		if l, ok := s.driver.ListOf(id); !ok || l == flowcon.NewList {
			t.Fatalf("container %s in %v after 140 s, want classified", id, l)
		}
	}

	s.drop = "/v1/stats"
	if !s.step() {
		t.Fatal("the dropped poll did not run Algorithm 1")
	}
	if s.drop != "" {
		t.Fatal("the driver's poll did not reach /v1/stats")
	}
	if got := s.driver.Interval(); got != steppedConfig.InitialInterval {
		t.Fatalf("interval after the dropped poll = %g, want reset to %g", got, steppedConfig.InitialInterval)
	}
	for _, id := range ids {
		if l, ok := s.driver.ListOf(id); ok {
			t.Fatalf("container %s still in %v after the dropped poll", id, l)
		}
	}

	if !s.step() {
		t.Fatal("the poll after the drop did not run Algorithm 1")
	}
	for i, id := range ids {
		if l, ok := s.driver.ListOf(id); !ok || l != flowcon.NewList {
			t.Fatalf("container %s in %v, %v after the drop; want NL", id, l, ok)
		}
		st, err := s.client.JobStatus(context.Background(), steppedJobs[i].name)
		if err != nil || st.State != "running" || st.ID != id {
			t.Fatalf("job %s = %+v, %v; want still running as %s", steppedJobs[i].name, st, err, id)
		}
	}
}

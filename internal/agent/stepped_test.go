package agent

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"
	"time"

	"repro/internal/flowcon"
	"repro/internal/livedock"
	"repro/internal/realtime"
	"repro/internal/sim"
)

// stepped is the live worker in one process under one fake clock: a
// livedock node behind NewServer, a Client whose transport calls the
// server's handler directly, and the worker's FlowCon, a
// flowcon.Controller on an engine that the worker's realtime.Pacer paces
// on the same clock, subscribed to the node's hooks through the pacer.
// The harness moves the clock to each wake the pacer asks for and wakes
// it there, as Pacer.Run does with no lateness. Nothing runs on a
// goroutine, opens a socket or reads the wall clock, yet every request
// goes through the real /v1 encoding, so a run is a deterministic
// simulation of the deployed worker.
type stepped struct {
	t      *testing.T
	clk    *fakeClock
	client *Client
	node   *livedock.Node
	// handler serves the worker's /v1 routes; nil while the worker is
	// down.
	handler http.Handler

	engine *sim.Engine
	pacer  *realtime.Pacer
	ctrl   *flowcon.Controller
	// runs traces every Algorithm 1 run of the current controller.
	runs []flowcon.TraceEntry
}

var steppedConfig = flowcon.Config{Alpha: 0.05, Beta: 2, InitialInterval: 20}

// newStepped boots a worker and a client that talks to it.
func newStepped(t *testing.T) *stepped {
	t.Helper()
	s := &stepped{t: t, clk: newFakeClock()}
	s.boot()
	s.client = NewClient("http://worker", &http.Client{Transport: s})
	return s
}

// errWorkerDown is what a request to a crashed worker gets.
var errWorkerDown = errors.New("dial tcp: connection refused")

// RoundTrip implements http.RoundTripper by serving the request with the
// current worker's handler, or failing it while the worker is down.
func (s *stepped) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Body != nil {
		defer req.Body.Close()
	}
	if s.handler == nil {
		return nil, errWorkerDown
	}
	rec := httptest.NewRecorder()
	s.handler.ServeHTTP(rec, req.Clone(req.Context()))
	return rec.Result(), nil
}

// boot starts a fresh worker process on the shared clock: a new node,
// empty and counting its containers from one again, behind a new server,
// governed by a new controller on a new engine.
func (s *stepped) boot() {
	s.node = livedock.NewNodeWithClock(1.0, s.clk.Now)
	s.handler = NewServer(s.node, 1.0).Handler()
	s.engine = sim.NewEngine()
	s.pacer = realtime.NewPacerWithClock(s.engine, s.node, s.clk.Now)
	s.runs = nil
	s.ctrl = flowcon.NewController(steppedConfig, s.engine, s.node, s)
	s.pacer.Listen(s.ctrl)
	s.ctrl.Start()
}

// crash takes the worker process down, with every container on it and
// its controller; boot starts the next one.
func (s *stepped) crash() { s.handler = nil }

// RecordRun implements flowcon.Tracer, copying the entry's Containers out
// of the controller's reused buffer.
func (s *stepped) RecordRun(e flowcon.TraceEntry) {
	e.Containers = slices.Clone(e.Containers)
	s.runs = append(s.runs, e)
}

// step advances the clock by d through every wake the pacer asks for on
// the way: one at once, as a post since the last step would trigger, one
// at each engine event and node exit due before the end, and one at the
// end.
func (s *stepped) step(d time.Duration) {
	end := s.clk.Now().Add(d)
	for next := s.pacer.Step(); !next.After(end); next = s.pacer.Step() {
		if now := s.clk.Now(); next.After(now) {
			s.clk.Advance(next.Sub(now))
		}
	}
	s.clk.Advance(end.Sub(s.clk.Now()))
	s.pacer.Step()
}

// steps runs n one-second steps.
func (s *stepped) steps(n int) {
	for i := 0; i < n; i++ {
		s.step(time.Second)
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

// cancel stops one running job through /v1/jobs/{name}/cancel.
func (s *stepped) cancel(name string) {
	s.t.Helper()
	if st, err := s.client.CancelJob(context.Background(), name); err != nil || st.State != "exited" {
		s.t.Fatalf("cancel %s: %+v, %v", name, st, err)
	}
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

// lastRun is the most recent Algorithm 1 run, with the ids it listed.
func (s *stepped) lastRun() (flowcon.TraceEntry, []string) {
	s.t.Helper()
	if len(s.runs) == 0 {
		s.t.Fatal("Algorithm 1 never ran")
	}
	e := s.runs[len(s.runs)-1]
	ids := make([]string, len(e.Containers))
	for i, c := range e.Containers {
		ids[i] = c.ID
	}
	return e, ids
}

// An exit and an arrival that fall inside one second, the period the
// retired manager polled the container count at, each get an immediate
// Algorithm 1 run at their own instant. A count poll saw neither: the
// count did not change. Within one wake of the engine they share one
// run, which already drops the departed container and lists the new one.
func TestExitAndArrivalEachRunAlgorithm1(t *testing.T) {
	s := newStepped(t)
	ids := s.submitAll()
	s.steps(60)
	for _, id := range ids {
		if _, ok := s.ctrl.ListOf(id); !ok {
			t.Fatalf("container %s unmanaged after 60 s", id)
		}
	}

	// In two wakes.
	runs := len(s.runs)
	s.cancel("lstm")
	s.step(300 * time.Millisecond)
	dep, listed := s.lastRun()
	if len(s.runs) != runs+1 || dep.Trigger != "departure" || slices.Contains(listed, ids[2]) {
		t.Fatalf("after the exit: %d new runs, last %q listing %v; want one departure run without %s",
			len(s.runs)-runs, dep.Trigger, listed, ids[2])
	}
	if l, ok := s.ctrl.ListOf(ids[2]); ok {
		t.Fatalf("departed container still in %v", l)
	}

	fresh := s.submit("lstm-2", "LSTM-CRF (Pytorch)")
	s.step(300 * time.Millisecond)
	arr, listed := s.lastRun()
	if len(s.runs) != runs+2 || arr.Trigger != "arrival" || arr.At <= dep.At || !slices.Contains(listed, fresh) {
		t.Fatalf("after the arrival: %d new runs, last %q at %v listing %v; want an arrival run with %s",
			len(s.runs)-runs, arr.Trigger, arr.At, listed, fresh)
	}
	if l, ok := s.ctrl.ListOf(fresh); !ok || l != flowcon.NewList {
		t.Fatalf("new container in %v (%v), want NL", l, ok)
	}

	// In one wake.
	s.steps(30)
	runs = len(s.runs)
	s.cancel("vae-tf")
	fresh = s.submit("vae-tf-2", "VAE (Tensorflow)")
	s.step(300 * time.Millisecond)
	one, listed := s.lastRun()
	if len(s.runs) != runs+1 || one.Trigger != "departure" {
		t.Fatalf("%d new runs, last %q; want one immediate run", len(s.runs)-runs, one.Trigger)
	}
	if slices.Contains(listed, ids[1]) || !slices.Contains(listed, fresh) {
		t.Fatalf("the run listed %v; want %s gone and %s in", listed, ids[1], fresh)
	}
	if _, ok := s.ctrl.ListOf(ids[1]); ok {
		t.Fatal("departed container still listed")
	}
}

// A job that runs out of work with nothing polling it departs at its
// finish: the pacer wakes at the node's next exit, so the job's status
// reads the finish instant, not a later read, and the departure's
// Algorithm 1 run happens at that instant.
func TestFinishedJobDepartsAtItsFinish(t *testing.T) {
	s := newStepped(t)
	s.step(2500 * time.Millisecond)
	id := s.submit("mnist", "MNIST (Tensorflow)") // 28 cpu-seconds at a full core
	s.step(40 * time.Second)                      // one step: only the pacer's own wakes
	st, err := s.client.JobStatus(context.Background(), "mnist")
	if err != nil || st.State != "exited" || !st.Done {
		t.Fatalf("status %+v, %v; want exited and done", st, err)
	}
	if st.StartedAt != 2.5 || st.FinishedAt != 30.5 || st.CPUSeconds != 28 {
		t.Fatalf("ran %v to %v for %v cpu-seconds, want 2.5 to 30.5 for 28", st.StartedAt, st.FinishedAt, st.CPUSeconds)
	}
	dep, listed := s.lastRun()
	if dep.Trigger != "departure" || dep.At != 30.5 || slices.Contains(listed, id) {
		t.Fatalf("last run %q at %v listing %v; want the departure at 30.5 without %s", dep.Trigger, dep.At, listed, id)
	}
}

// End-to-end over the wire: FlowCon, running inside a remote worker,
// drives the jobs submitted to it over /v1 — a converged VAE yields to a
// fresh MNIST, and the throttled limit shows in the job's status.
func TestRemoteFlowConDriver(t *testing.T) {
	s := newStepped(t)
	vae := s.submit("vae", "VAE (Pytorch)")
	s.steps(80)
	mnist := s.submit("mnist", "MNIST (Tensorflow)")
	s.steps(40)
	if l, ok := s.ctrl.ListOf(vae); !ok || l != flowcon.CompletingList {
		t.Fatalf("VAE in %v, want CL", l)
	}
	if l, ok := s.ctrl.ListOf(mnist); !ok || l != flowcon.NewList {
		t.Fatalf("MNIST in %v, want NL", l)
	}
	st, err := s.client.JobStatus(context.Background(), "vae")
	if err != nil || st.CPULimit >= 0.5 {
		t.Fatalf("VAE status %+v, %v; want a throttled limit", st, err)
	}
}

// A worker restart under the manager that submits to it (Figure 2's
// manager; here the /v1 client). The restart takes the worker's
// containers and its FlowCon controller with it, so there is nothing for
// a retry to recover. Whether a status poll lands in the downtime, where
// it fails as a transport error rather than reading as a job state, or
// the restart falls between two polls, the jobs resubmitted under the
// same names come back as new containers, never under an id the old
// worker issued, and the new worker's controller governs them.
func TestManagerRidesThroughWorkerRestart(t *testing.T) {
	for _, tc := range []struct {
		name     string
		observed bool
	}{
		{"poll sees the downtime", true},
		{"restart between polls", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := newStepped(t)
			old := s.submitAll()
			s.steps(60)
			s.crash()
			if tc.observed {
				var apiErr *APIError
				if st, err := s.client.JobStatus(context.Background(), steppedJobs[0].name); err == nil || errors.As(err, &apiErr) {
					t.Fatalf("status poll of a down worker = %+v, %v; want a transport error", st, err)
				}
			}
			s.boot()
			fresh := s.submitAll()
			s.steps(45)
			if len(s.runs) < 2 {
				t.Fatalf("the new controller ran Algorithm 1 %d times, want at least 2", len(s.runs))
			}
			for i, j := range steppedJobs {
				st, err := s.client.JobStatus(context.Background(), j.name)
				if err != nil || st.State != "running" || st.ID != fresh[i] {
					t.Fatalf("job %s after restart = %+v, %v; want running as %s", j.name, st, err, fresh[i])
				}
				if slices.Contains(old, fresh[i]) {
					t.Fatalf("restarted worker reissued container id %s", fresh[i])
				}
				if l, ok := s.ctrl.ListOf(old[i]); ok {
					t.Fatalf("dead container %s in %v", old[i], l)
				}
				if _, ok := s.ctrl.ListOf(fresh[i]); !ok {
					t.Fatalf("new container %s unmanaged", fresh[i])
				}
			}
		})
	}
}

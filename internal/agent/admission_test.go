package agent

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/livedock"
	"repro/internal/runtime"
)

// The admission cap holds under concurrency. The check and the launch
// used to be separate critical sections, so two submits (or a submit and
// an exit hook's admitQueued) could both see the same free slot; driving
// the handler directly makes the window wide enough to hit.
func TestAdmissionCapHoldsUnderConcurrency(t *testing.T) {
	rounds := 3000
	if testing.Short() {
		rounds = 300
	}
	const submitters = 4
	for round := 0; round < rounds; round++ {
		node := livedock.NewNodeWithClock(1.0, newFakeClock().Now)
		s := NewServer(node, 1.0)
		s.SetAdmissionLimits(1, 1000)
		h := s.Handler()
		var peak atomic.Int64
		node.OnStart(func(runtime.Container) {
			if n := int64(node.RunningCount()); n > peak.Load() {
				peak.Store(n)
			}
		})
		submit := func(name string) {
			body := fmt.Sprintf(`{"name":%q,"model":"MNIST (Pytorch)"}`, name)
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", strings.NewReader(body)))
			if rec.Code != http.StatusCreated && rec.Code != http.StatusAccepted {
				t.Errorf("round %d: submit %s: status %d: %s", round, name, rec.Code, rec.Body)
			}
		}
		burst := func(prefix string, extra func()) {
			var wg sync.WaitGroup
			for i := 0; i < submitters; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					submit(fmt.Sprintf("%s%d", prefix, i))
				}(i)
			}
			if extra != nil {
				wg.Add(1)
				go func() {
					defer wg.Done()
					extra()
				}()
			}
			wg.Wait()
		}

		// Submits racing each other for the one slot...
		burst("a", nil)
		// ...then racing the exit hook that hands the slot on.
		running := node.PS(false)
		if len(running) != 1 {
			t.Fatalf("round %d: %d running after the first burst, want 1", round, len(running))
		}
		burst("b", func() {
			if err := node.Stop(running[0].ID); err != nil {
				t.Errorf("round %d: stop: %v", round, err)
			}
		})

		if got := node.RunningCount(); got != 1 || peak.Load() > 1 {
			t.Fatalf("round %d: %d running (peak %d) with maxRunning 1", round, got, peak.Load())
		}
		// One exited, one runs, everything else still waits: nothing was
		// lost and nothing sits queued behind a free slot.
		s.mu.Lock()
		queued, launching := len(s.queue), s.launching
		s.mu.Unlock()
		if queued != 2*submitters-2 || launching != 0 {
			t.Fatalf("round %d: %d queued, %d reservations outstanding; want %d and 0", round, queued, launching, 2*submitters-2)
		}
	}
}

// serve runs one request through h in-process.
func serve(h http.Handler, method, path, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
	return rec
}

// No POST route starts a container past the admission queue: not while
// the one running slot is taken, and not once the agent drains. The
// patterns include the raw launch, the two stop routes and the limit
// update the agent used to serve, so a route that comes back without
// admission shows here.
func TestNoRouteStartsAContainerPastAdmission(t *testing.T) {
	node := livedock.NewNodeWithClock(1.0, newFakeClock().Now)
	s := NewServer(node, 1.0)
	s.SetAdmissionLimits(1, 4)
	h := s.Handler()
	started := 0
	node.OnStart(func(runtime.Container) { started++ })
	if rec := serve(h, http.MethodPost, "/v1/jobs", `{"name":"a","model":"MNIST (Pytorch)"}`); rec.Code != http.StatusCreated {
		t.Fatalf("submit a: status %d: %s", rec.Code, rec.Body)
	}
	postAll := func(phase, name string) {
		body := fmt.Sprintf(`{"name":%q,"model":"MNIST (Pytorch)","cpu_limit":0.5}`, name)
		for _, pattern := range []string{
			"/v1/containers",
			"/v1/containers/{id}/update",
			"/v1/containers/{id}/stop",
			"/v1/jobs",
			"/v1/jobs/{name}/cancel",
			"/v1/jobs/{name}/stop",
		} {
			path := strings.NewReplacer("{id}", name, "{name}", name).Replace(pattern)
			rec := serve(h, http.MethodPost, path, body)
			if got := node.RunningCount(); got != 1 {
				t.Errorf("%s: POST %s answered %d and left %d running, want 1", phase, path, rec.Code, got)
			}
		}
	}
	postAll("slot taken", "b")
	before := started
	s.Drain()
	postAll("draining", "c")
	if started != before {
		t.Errorf("%d containers started while draining", started-before)
	}
	text := serve(h, http.MethodGet, "/v1/metrics", "").Body.String()
	if submits := metricValue(t, text, "flowcon_agent_submits_total"); submits < float64(started) {
		t.Errorf("submits_total %g, but %d containers started", submits, started)
	}
}

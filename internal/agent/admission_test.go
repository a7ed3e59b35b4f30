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

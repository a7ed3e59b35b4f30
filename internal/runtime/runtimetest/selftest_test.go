package runtimetest_test

import (
	"sync"
	"testing"
	"time"

	"repro/internal/dlmodel"
	"repro/internal/livedock"
	"repro/internal/runtime"
	"repro/internal/runtime/runtimetest"
)

// selfClock is a hand-driven clock for the suite's own smoke test.
type selfClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *selfClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// TestSuiteAgainstReferenceBackend smoke-tests the conformance suite
// itself against a known-good backend, so a regression in the suite's
// own plumbing (spec handling, clock advance) is caught here rather
// than appearing as three simultaneous backend failures.
func TestSuiteAgainstReferenceBackend(t *testing.T) {
	runtimetest.Run(t, func(t *testing.T) *runtimetest.Env[*livedock.Node] {
		clk := &selfClock{now: time.Unix(0, 0)}
		n := livedock.NewNodeWithClock(1.0, clk.Now)
		return &runtimetest.Env[*livedock.Node]{
			RT: n,
			Spec: func(name string) runtime.LaunchSpec {
				return runtime.LaunchSpec{
					Name:     name,
					Workload: dlmodel.NewJob(name, dlmodel.MNISTPyTorch()),
				}
			},
			Advance: func(seconds float64) {
				clk.mu.Lock()
				clk.now = clk.now.Add(time.Duration(seconds * float64(time.Second)))
				clk.mu.Unlock()
				n.Settle()
			},
		}
	})
}

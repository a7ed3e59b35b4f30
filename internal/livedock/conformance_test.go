package livedock_test

import (
	"sync"
	"testing"
	"time"

	"repro/internal/dlmodel"
	"repro/internal/livedock"
	"repro/internal/runtime"
	"repro/internal/runtime/runtimetest"
)

// confClock is a hand-driven wall clock so the conformance suite runs
// the live backend deterministically.
type confClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *confClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *confClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

// TestRuntimeConformance runs the shared runtime.Runtime suite against
// the wall-clock in-process backend under a fake clock.
func TestRuntimeConformance(t *testing.T) {
	runtimetest.Run(t, func(t *testing.T) *runtimetest.Env[*livedock.Node] {
		clk := &confClock{now: time.Unix(0, 0)}
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
				clk.Advance(time.Duration(seconds * float64(time.Second)))
			},
		}
	})
}

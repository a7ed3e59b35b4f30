// Package realtime runs FlowCon against wall-clock time — the deployment
// mode of the paper, where the middleware sits beside a real Docker
// daemon rather than inside a simulator.
//
// The Driver runs the same flowcon.Cycle the simulated controller does,
// so Algorithm 1 has one implementation. Only the trigger differs: the
// Driver implements Algorithm 2's listeners exactly as the paper's
// pseudocode does, by polling the container count T(i) and differencing
// consecutive iterations (the simulator uses event subscriptions instead,
// which a daemon API makes possible; the polling form needs nothing but
// `docker ps`).
//
// The Driver is clock-agnostic at its core: Step takes "now" in seconds,
// so tests drive it with a fake clock, while Run wraps it in a
// time.Ticker loop for production use against any Runtime implementation
// (e.g. a thin adapter over the Docker HTTP API).
package realtime

import (
	"context"
	"sync"
	"time"

	"repro/internal/flowcon"
)

// Runtime is the container-platform surface the driver manages: the same
// two methods the simulated executor drives.
type Runtime = flowcon.Runtime

// Driver runs Algorithm 1 on a configurable interval with Algorithm 2's
// polling listeners. It is safe for concurrent use: Step and the
// accessors share a mutex, so a status reporter may read ListOf, Interval
// and Runs while Run polls. Step calls the Runtime with the mutex held, so
// the Runtime must not call back into the Driver.
type Driver struct {
	mu      sync.Mutex
	cycle   *flowcon.Cycle
	runtime Runtime

	nextRunAt float64
	lastCount int
	havePrev  bool
}

// NewDriver creates a driver with the given configuration.
func NewDriver(cfg flowcon.Config, rt Runtime) *Driver {
	cycle := flowcon.NewCycle(cfg, rt)
	return &Driver{cycle: cycle, runtime: rt, nextRunAt: cycle.Interval()}
}

// Runs returns how many times Algorithm 1 has executed.
func (d *Driver) Runs() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.cycle.Runs()
}

// Interval returns the current (possibly backed-off) interval in seconds.
func (d *Driver) Interval() float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.cycle.Interval()
}

// ListOf returns a container's current list assignment.
func (d *Driver) ListOf(id string) (flowcon.List, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.cycle.ListOf(id)
}

// Step advances the driver to wall-clock time now (seconds since an
// arbitrary epoch). It first runs Algorithm 2's listener poll: if the
// container count changed since the previous step, the interval resets
// and Algorithm 1 runs immediately. Otherwise Algorithm 1 runs only when
// the executor interval has elapsed. It returns true if Algorithm 1 ran.
func (d *Driver) Step(now float64) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	stats := d.runtime.RunningStats()

	// Algorithm 2, lines 2-17: T(i) differencing.
	count := len(stats)
	poolChanged := d.havePrev && count != d.lastCount
	d.lastCount = count
	d.havePrev = true

	if poolChanged {
		d.cycle.ResetInterval()
	} else if now < d.nextRunAt {
		return false
	}
	d.cycle.Run(now, stats)
	d.nextRunAt = now + d.cycle.Interval()
	return true
}

// Run polls the runtime every pollPeriod until the context is canceled,
// converting wall-clock time to the seconds Step expects. pollPeriod
// should be much smaller than the configured interval — it bounds the
// listener latency, like the paper's lightweight background listeners.
func (d *Driver) Run(ctx context.Context, pollPeriod time.Duration) {
	ticker := time.NewTicker(pollPeriod)
	defer ticker.Stop()
	start := time.Now()
	for {
		select {
		case <-ctx.Done():
			return
		case t := <-ticker.C:
			d.Step(t.Sub(start).Seconds())
		}
	}
}

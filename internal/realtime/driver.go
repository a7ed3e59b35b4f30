// Package realtime runs FlowCon's pure core against wall-clock time — the
// deployment mode of the paper, where the middleware sits beside a real
// Docker daemon rather than inside a simulator.
//
// The Driver composes the same pieces the simulated controller uses —
// flowcon.Monitor for Eq. 1/2 measurements and flowcon.Step for
// Algorithm 1 — but implements Algorithm 2's listeners exactly as the
// paper's pseudocode does: by polling the container count T(i) and
// differencing consecutive iterations (the simulator uses event
// subscriptions instead, which a daemon API makes possible; the polling
// form needs nothing but `docker ps`).
//
// The Driver is deliberately clock-agnostic at its core: Step takes "now"
// in seconds, so tests drive it with a fake clock, while Run wraps it in a
// time.Ticker loop for production use against any Runtime implementation
// (e.g. a thin adapter over the Docker HTTP API).
package realtime

import (
	"context"

	"time"

	"repro/internal/flowcon"
)

// Runtime is the container-platform surface the driver manages: the same
// two methods the simulated executor drives.
type Runtime = flowcon.Runtime

// Driver runs Algorithm 1 on a configurable interval with Algorithm 2's
// polling listeners. Safe for use from one goroutine; Run serializes
// access internally.
type Driver struct {
	cfg     flowcon.Config
	runtime Runtime
	monitor *flowcon.Monitor

	lists  map[string]flowcon.List
	limits map[string]float64

	itval     float64
	nextRunAt float64
	lastCount int
	havePrev  bool

	runs      int
	iteration int
}

// NewDriver creates a driver with the given configuration.
func NewDriver(cfg flowcon.Config, rt Runtime) *Driver {
	cfg = ValidateConfig(cfg)
	if rt == nil {
		panic("realtime: nil runtime")
	}
	monitor := flowcon.NewMonitor()
	monitor.SetPrimaryResource(cfg.Resource)
	return &Driver{
		cfg:       cfg,
		runtime:   rt,
		monitor:   monitor,
		lists:     make(map[string]flowcon.List),
		limits:    make(map[string]float64),
		itval:     cfg.InitialInterval,
		nextRunAt: cfg.InitialInterval,
	}
}

// ValidateConfig normalizes a config the same way the controller does,
// panicking on malformed values.
func ValidateConfig(cfg flowcon.Config) flowcon.Config {
	// NextInterval round-trips the config through the same withDefaults
	// validation the simulator controller applies.
	_ = flowcon.NextInterval(cfg.InitialInterval, false, cfg)
	if cfg.Beta == 0 {
		cfg.Beta = 2
	}
	if cfg.MinLimit == 0 {
		cfg.MinLimit = 0.001
	}
	return cfg
}

// Runs returns how many times Algorithm 1 has executed.
func (d *Driver) Runs() int { return d.runs }

// Interval returns the current (possibly backed-off) interval in seconds.
func (d *Driver) Interval() float64 { return d.itval }

// ListOf returns a container's current list assignment.
func (d *Driver) ListOf(id string) (flowcon.List, bool) {
	l, ok := d.lists[id]
	return l, ok
}

// Step advances the driver to wall-clock time now (seconds since an
// arbitrary epoch). It first runs Algorithm 2's listener poll: if the
// container count changed since the previous step, the interval resets
// and Algorithm 1 runs immediately. Otherwise Algorithm 1 runs only when
// the executor interval has elapsed. It returns true if Algorithm 1 ran.
func (d *Driver) Step(now float64) bool {
	stats := d.runtime.RunningStats()

	// Algorithm 2, lines 2-17: T(i) differencing.
	count := len(stats)
	poolChanged := d.havePrev && count != d.lastCount
	d.lastCount = count
	d.havePrev = true
	d.iteration++

	if poolChanged {
		d.itval = d.cfg.InitialInterval
		d.runAlgorithm1(now, stats)
		return true
	}
	if now >= d.nextRunAt {
		d.runAlgorithm1(now, stats)
		return true
	}
	return false
}

// runAlgorithm1 measures, classifies, applies limits, and schedules the
// next run with back-off or reset.
func (d *Driver) runAlgorithm1(now float64, stats []flowcon.Stat) {
	d.runs++
	measurements := d.monitor.Collect(now, stats)

	live := make(map[string]bool, len(measurements))
	snaps := make([]flowcon.JobSnapshot, len(measurements))
	for i, m := range measurements {
		live[m.ID] = true
		list, ok := d.lists[m.ID]
		if !ok {
			list = flowcon.NewList
		}
		snaps[i] = flowcon.JobSnapshot{ID: m.ID, List: list, G: m.G, GDefined: m.Defined}
	}
	// Algorithm 2 lines 10-15: drop departed containers from every list.
	for id := range d.lists {
		if !live[id] {
			delete(d.lists, id)
			delete(d.limits, id)
			d.monitor.Forget(id)
		}
	}

	res := flowcon.Step(snaps, d.cfg)
	for _, dec := range res.Decisions {
		d.lists[dec.ID] = dec.List
		if !dec.SetLimit {
			continue
		}
		if cur, ok := d.limits[dec.ID]; ok && cur == dec.Limit {
			continue
		}
		if err := d.runtime.SetCPULimit(dec.ID, dec.Limit); err != nil {
			continue // container exited between stats and update
		}
		d.limits[dec.ID] = dec.Limit
	}

	d.itval = flowcon.NextInterval(d.itval, res.AllCompleting, d.cfg)
	d.nextRunAt = now + d.itval
}

// Run polls the runtime every pollPeriod until the context is canceled,
// converting wall-clock time to the seconds Step expects. pollPeriod
// should be much smaller than the configured interval — it bounds the
// listener latency, like the paper's lightweight background listeners.
// The driver itself is single-goroutine: do not call Step concurrently
// with Run.
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

// Package flowcon implements the paper's contribution: elastic soft-limit
// configuration for containerized deep-learning jobs, driven by growth
// efficiency.
//
// The package mirrors the paper's module structure (Section 3.2):
//
//   - the container monitor (monitor.go) samples each container's
//     evaluation function and resource usage and computes the progress
//     score P (Eq. 1) and growth efficiency G (Eq. 2) against the
//     container's previous sample, its window; the cycle keeps each
//     window in the container's slot, Monitor keeps them by id for the
//     callers outside a cycle;
//   - Algorithm 1 (algorithm1.go) classifies containers into the New /
//     Watching / Completing lists and plans per-container soft limits,
//     with the all-Completing exponential back-off;
//   - the Executor's cycle (cycle.go) keeps one slot per container (its
//     list, applied limit and monitor window), measures, runs Algorithm
//     1, applies limit updates through the runtime, and backs off the
//     interval;
//   - Algorithm 2's listeners (controller.go) react to container
//     arrivals/departures, reset the interval, and run the cycle
//     immediately. The Controller runs on a sim.Engine: the simulator's,
//     or in the live worker one that realtime.Pacer advances with the
//     wall clock, so both modes run the same controller.
//
// Algorithm 1 and the monitor are pure — they operate on snapshots and
// return decisions — so they are unit-testable without a simulator and
// could equally drive a real Docker Engine client.
package flowcon

import "fmt"

// List is the category Algorithm 1 assigns to each container.
type List int

const (
	// NewList (NL): "young and quickly growing".
	NewList List = iota
	// WatchingList (WL): "near convergence".
	WatchingList
	// CompletingList (CL): "converging and growing slowly".
	CompletingList
)

// String implements fmt.Stringer using the paper's abbreviations.
func (l List) String() string {
	switch l {
	case NewList:
		return "NL"
	case WatchingList:
		return "WL"
	case CompletingList:
		return "CL"
	default:
		return fmt.Sprintf("List(%d)", int(l))
	}
}

// Config holds FlowCon's tunables. The paper's two key parameters are
// Alpha (the classification threshold, 1%-15% in the evaluation) and
// InitialInterval (itval, 20s-60s).
type Config struct {
	// Alpha is the growth-efficiency threshold separating growing from
	// converged containers.
	Alpha float64
	// Beta sets the Completing-list limit floor 1/(Beta·n), preventing
	// "abnormal behavior caused by limited resources" (Algorithm 1 line
	// 22). The paper leaves β unspecified; 2 reproduces the limit of
	// 0.25 observed for VAE in Figure 7 with two containers present.
	Beta float64
	// InitialInterval is itval: seconds between Algorithm 1 runs before
	// any exponential back-off.
	InitialInterval float64
	// MaxInterval caps the exponential back-off (0 = uncapped, the
	// paper's behaviour; listeners reset the interval on any pool change
	// anyway).
	MaxInterval float64
	// MinLimit is the smallest limit ever applied, a safety clamp below
	// the CL floor (docker update rejects a zero CPU quota).
	MinLimit float64
}

// withDefaults fills zero fields with safe defaults and validates.
func (c Config) withDefaults() Config {
	if c.Beta == 0 {
		c.Beta = 2
	}
	if c.MinLimit == 0 {
		c.MinLimit = 0.001
	}
	// Positive range tests throughout, so NaN fails every one of them.
	if !(c.Alpha > 0 && c.Alpha < 1) {
		panic(fmt.Sprintf("flowcon: alpha %g outside (0,1)", c.Alpha))
	}
	if !(c.Beta > 0) {
		panic(fmt.Sprintf("flowcon: beta %g must be positive", c.Beta))
	}
	if !(c.InitialInterval > 0) {
		panic(fmt.Sprintf("flowcon: initial interval %g must be positive", c.InitialInterval))
	}
	if !(c.MinLimit > 0 && c.MinLimit <= 1) {
		panic(fmt.Sprintf("flowcon: min limit %g outside (0,1]", c.MinLimit))
	}
	return c
}

package resource

import (
	"fmt"
	"math"
	"slices"
)

// Claim is one container's request for a share of a single contended
// resource (in this reproduction, CPU).
type Claim struct {
	// ID identifies the container the claim belongs to.
	ID string
	// Limit is the soft limit as a fraction of node capacity in (0, 1].
	// 1 means "unlimited" (the NA baseline and freshly-started containers).
	Limit float64
	// Demand is the maximum amount (in capacity units) the workload can
	// actually consume right now. A single-threaded trainer on an 8-way
	// node, or the LSTM-CFC job from Section 5.4 that "does not maximize
	// the CPU usage", is expressed by Demand < capacity.
	Demand float64
}

// Allocation is the outcome of Allocator.Allocate for one claim.
type Allocation struct {
	ID     string
	Amount float64
}

// epsilon below which shares are considered zero during progressive filling.
const allocEps = 1e-12

// Allocator divides capacity among the claims with proportional-share
// (docker `--cpu-shares` / cgroup cpu.weight) semantics and returns one
// allocation per claim (in the input order).
//
// Each claim's Limit acts as a scheduling weight: under contention a
// container receives capacity in proportion to its weight, clipped by its
// Demand, with the progressive-filling redistribution giving capacity a
// container cannot use to the others. The semantics are exactly what the
// paper describes for its `docker update` limits:
//
//   - they are *soft*: "even if the container cannot maximize its own
//     resource, the unused option will be utilized by others" — a
//     weight, unlike a CFS quota, never strands capacity;
//   - the sum of all limits may exceed 1 (Section 5.4's remark) because
//     only ratios matter;
//   - a container alone on the node uses the whole node regardless of its
//     weight, matching Figure 7 where VAE returns to full usage once its
//     competitors exit;
//   - Figure 7's snapshot of VAE at limit 0.25 versus MNIST at 1.0
//     yields a 0.2/0.8 split (the paper rounds to 25%/75%).
//
// The allocation is work-conserving: capacity goes idle only when every
// claim's Demand is satisfied.
//
// An Allocator reuses its scratch buffers across calls, so a simulation
// hot path (the daemon reallocates on every start/exit/update) allocates
// nothing in steady state. The returned slice is owned by the Allocator
// and is valid only until the next Allocate call. The zero value is ready
// to use.
//
// Allocate panics on malformed input (negative or NaN capacity, a limit
// outside (0,1] or NaN, a negative, NaN or infinite demand): those are
// programming errors in a deterministic simulation, not runtime
// conditions. Claim IDs are not checked for duplicates; callers build
// claims from a pool whose IDs are unique by construction.
type Allocator struct {
	out     []Allocation
	caps    []float64
	weights []float64
	idx     []int
	fill    []float64
}

// Allocate divides capacity among the claims with the semantics documented
// on Allocator, reusing its scratch buffers.
func (a *Allocator) Allocate(capacity float64, claims []Claim) []Allocation {
	// Positive range tests, so a NaN capacity or limit fails them.
	if !(capacity >= 0) {
		panic(fmt.Sprintf("resource: invalid capacity %g", capacity))
	}
	for _, c := range claims {
		if !(c.Limit > 0 && c.Limit <= 1) {
			panic(fmt.Sprintf("resource: claim %q has limit %g outside (0,1]", c.ID, c.Limit))
		}
		if c.Demand < 0 || math.IsNaN(c.Demand) || math.IsInf(c.Demand, 0) {
			panic(fmt.Sprintf("resource: claim %q has invalid demand %g", c.ID, c.Demand))
		}
	}

	a.out = a.out[:0]
	for _, c := range claims {
		a.out = append(a.out, Allocation{ID: c.ID, Amount: 0})
	}
	if capacity == 0 || len(claims) == 0 {
		return a.out
	}

	// Weighted progressive filling: weights are the limits, caps are the
	// demands.
	a.caps = a.caps[:0]
	a.weights = a.weights[:0]
	for _, c := range claims {
		a.caps = append(a.caps, math.Min(c.Demand, capacity))
		a.weights = append(a.weights, c.Limit)
	}
	a.fill = growFloats(a.fill, len(claims))
	a.idx = a.idx[:0]
	a.waterFill(capacity)

	for i := range a.out {
		a.out[i].Amount = a.fill[i]
	}
	return a.out
}

// growFloats resizes a scratch float slice to n zeroed entries.
func growFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = 0
	}
	return s
}

// waterFill distributes capacity among a.caps/a.weights entries into
// a.fill: capacity flows in proportion to weights, clamped at each entry's
// cap, with the remainder redistributed among unsaturated entries until
// either capacity or every cap is exhausted.
//
// It runs in O(n log n): entries saturate in increasing order of
// cap/weight, so one sort suffices. All scratch lives on the Allocator.
func (a *Allocator) waterFill(capacity float64) {
	caps, weights := a.caps, a.weights
	n := len(caps)
	if capacity <= allocEps || n == 0 {
		return
	}

	// Order entries by the "water level" cap/weight at which they saturate.
	totalWeight := 0.0
	for i := 0; i < n; i++ {
		if caps[i] <= allocEps || weights[i] <= allocEps {
			continue
		}
		a.idx = append(a.idx, i)
		totalWeight += weights[i]
	}
	// slices.SortFunc instead of sort.Slice: the same pdqsort, but the
	// comparator stays on the stack, so the per-reallocate hot path does
	// not allocate.
	idx := a.idx
	slices.SortFunc(idx, func(x, y int) int {
		lx, ly := caps[x]/weights[x], caps[y]/weights[y]
		switch {
		case lx < ly:
			return -1
		case lx > ly:
			return 1
		default:
			return 0
		}
	})

	// Walk entries in saturation order. At each step the fill level is
	// remaining/totalWeight; an entry takes min(level*weight, cap). If the
	// entry saturates, the level rises for the rest; if it does not, no
	// later entry saturates either (sorted order) and the level is stable.
	remaining := capacity
	for _, i := range idx {
		if remaining <= allocEps || totalWeight <= allocEps {
			break
		}
		share := remaining / totalWeight * weights[i]
		if share > caps[i] {
			share = caps[i]
		}
		a.fill[i] = share
		remaining -= share
		totalWeight -= weights[i]
	}
}

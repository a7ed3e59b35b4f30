package flowcon

import (
	"math"

	"repro/internal/resource"
)

// Stat is one running container's settled counters, as provided by the
// container runtime (the simulated Docker daemon, or a real client). Eval
// is the job's current evaluation-function value; CPUSeconds is cumulative
// CPU time. The optional I/O counters and memory footprint feed the
// per-resource growth efficiencies of Eq. 2 (the paper records all four
// dimensions at the container monitor).
type Stat struct {
	ID         string
	Eval       float64
	CPUSeconds float64
	// BlkIOBytes and NetIOBytes are cumulative I/O counters (may be zero
	// if the runtime does not meter them).
	BlkIOBytes float64
	NetIOBytes float64
	// MemoryBytes is the current resident footprint (a gauge, not a
	// counter).
	MemoryBytes float64
}

// Measurement is the monitor's per-interval derivation for one container:
// the progress score P (Eq. 1), the average CPU usage R, and the growth
// efficiency G = P/R (Eq. 2) that Algorithm 1 classifies on, as in the
// paper's evaluation, plus the per-kind breakdown of Eq. 2. Defined is
// false for a container seen for the first time, which has no interval to
// difference over.
type Measurement struct {
	ID string
	P  float64
	R  float64
	G  float64
	// PerKind carries R and G for every resource dimension of Eq. 2.
	RKind   [resource.NumKinds]float64
	GKind   [resource.NumKinds]float64
	Defined bool
}

// usageEps is the CPU usage below which growth efficiency is defined as
// zero: a container that received (essentially) no CPU cannot demonstrate
// growth, and dividing by ~0 would produce unbounded G from measurement
// noise alone.
const usageEps = 1e-6

// Monitor is the paper's Container Monitor for callers that measure
// outside a Cycle (sched's quality-driven baseline, the migration
// rebalancer): it keeps the previous sample of each tracked container,
// keyed by id, and turns the current sample into progress and
// growth-efficiency measurements. A Cycle keeps the same window in its
// per-container slots. It is pure bookkeeping — no clock, no runtime
// dependency.
type Monitor struct {
	prev map[string]window
	// spare is the previous generation's map, recycled on each Collect so
	// the per-interval hot path allocates nothing in steady state.
	spare map[string]window
	// out is the reused measurement buffer returned by Collect.
	out []Measurement
}

// window is one container's monitor state: its previous sample, once it
// has one (seen).
type window struct {
	at         float64
	eval       float64
	cpuSeconds float64
	blkioBytes float64
	netioBytes float64
	seen       bool
}

// NewMonitor returns an empty monitor.
func NewMonitor() *Monitor {
	return &Monitor{
		prev:  make(map[string]window),
		spare: make(map[string]window),
	}
}

// Collect computes measurements for the given stats at time now (seconds)
// and advances the stored samples. Containers not present in stats are
// dropped from tracking (they exited). A container with no prior sample
// yields Defined=false this round and becomes measurable the next.
//
// The returned slice is scratch owned by the monitor and valid only until
// the next Collect — callers consume it within the same event.
//
// If now equals the previous sample time (a listener-triggered run in the
// same instant as a scheduled one), the previous measurement basis is kept
// and the container reports its last G via Defined=false — Algorithm 1
// treats it like a new arrival, which keeps it in NL with full limit
// rather than fabricating a zero-interval derivative.
func (m *Monitor) Collect(now float64, stats []Stat) []Measurement {
	out := m.out[:0]
	next := m.spare
	clear(next)
	for _, s := range stats {
		w := m.prev[s.ID]
		out = append(out, Measurement{})
		w.measure(now, s, &out[len(out)-1])
		next[s.ID] = w
	}
	m.spare = m.prev
	m.prev = next
	m.out = out
	return out
}

// measure is Eq. 1–2 for one container: it writes into mm the
// measurement of s, sampled at now, against the window's previous
// sample, and makes s the window's sample. Without a previous sample, or
// at its instant, the measurement is undefined; at its instant the
// window keeps its sample. Monitor.Collect and the Cycle's slots both
// measure through it.
func (w *window) measure(now float64, s Stat, mm *Measurement) {
	*mm = Measurement{ID: s.ID}
	if w.seen {
		if now <= w.at {
			return
		}
		dt := now - w.at
		p := math.Abs(s.Eval-w.eval) / dt
		mm.P = p
		mm.Defined = true
		mm.RKind[resource.CPU] = (s.CPUSeconds - w.cpuSeconds) / dt
		mm.RKind[resource.BlkIO] = (s.BlkIOBytes - w.blkioBytes) / dt
		mm.RKind[resource.NetIO] = (s.NetIOBytes - w.netioBytes) / dt
		mm.RKind[resource.Memory] = s.MemoryBytes // gauge: average ≈ current
		for k := resource.Kind(0); k < resource.NumKinds; k++ {
			r := mm.RKind[k]
			if r < 0 {
				// Cumulative counters never decrease; treat regression as
				// a runtime bug rather than producing a negative usage.
				panic("flowcon: resource counter went backwards: " + k.String())
			}
			if r > usageEps {
				mm.GKind[k] = p / r
			}
		}
		mm.R = mm.RKind[resource.CPU]
		mm.G = mm.GKind[resource.CPU]
	}
	*w = window{
		at: now, eval: s.Eval, cpuSeconds: s.CPUSeconds,
		blkioBytes: s.BlkIOBytes, netioBytes: s.NetIOBytes, seen: true,
	}
}

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

// Monitor is the paper's Container Monitor: it keeps the previous sample
// of each tracked container and turns the current sample into progress and
// growth-efficiency measurements. It is pure bookkeeping — no clock, no
// runtime dependency.
type Monitor struct {
	prev map[string]monitorSample
	// spare is the previous generation's map, recycled on each Collect so
	// the per-interval hot path allocates nothing in steady state.
	spare map[string]monitorSample
	// out is the reused measurement buffer returned by Collect.
	out []Measurement
}

type monitorSample struct {
	at         float64
	eval       float64
	cpuSeconds float64
	blkioBytes float64
	netioBytes float64
}

// NewMonitor returns an empty monitor.
func NewMonitor() *Monitor {
	return &Monitor{
		prev:  make(map[string]monitorSample),
		spare: make(map[string]monitorSample),
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
		prev, ok := m.prev[s.ID]
		cur := monitorSample{
			at: now, eval: s.Eval, cpuSeconds: s.CPUSeconds,
			blkioBytes: s.BlkIOBytes, netioBytes: s.NetIOBytes,
		}
		if !ok || now <= prev.at {
			out = append(out, Measurement{ID: s.ID, Defined: false})
			if !ok {
				next[s.ID] = cur
			} else {
				next[s.ID] = prev
			}
			continue
		}
		dt := now - prev.at
		p := math.Abs(s.Eval-prev.eval) / dt

		var mm Measurement
		mm.ID = s.ID
		mm.P = p
		mm.Defined = true
		mm.RKind[resource.CPU] = (s.CPUSeconds - prev.cpuSeconds) / dt
		mm.RKind[resource.BlkIO] = (s.BlkIOBytes - prev.blkioBytes) / dt
		mm.RKind[resource.NetIO] = (s.NetIOBytes - prev.netioBytes) / dt
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
		out = append(out, mm)
		next[s.ID] = cur
	}
	m.spare = m.prev
	m.prev = next
	m.out = out
	return out
}

// Forget drops a container from tracking (used when the Finished Cons
// listener reports an exit between collections).
func (m *Monitor) Forget(id string) {
	delete(m.prev, id)
}

// tracks reports whether id was in the stats of the last Collect.
func (m *Monitor) tracks(id string) bool {
	_, ok := m.prev[id]
	return ok
}

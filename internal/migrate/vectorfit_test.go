package migrate

import (
	"testing"

	"repro/internal/dlmodel"
	"repro/internal/sim"
)

// cpuBoundJob is a full-demand job with a modest footprint — the kind that
// saturates a node's CPU without touching its memory headroom.
func cpuBoundJob() dlmodel.Profile {
	p := longJob("CPU-Bound")
	p.CPUDemand = 1.0
	p.MemoryBytes = 1 << 30
	return p
}

// idleLightJob barely sips CPU (it is I/O- or convergence-stalled) but
// reserves a large resident set — memory-expensive, CPU-cheap.
func idleLightJob() dlmodel.Profile {
	p := longJob("Idle-Light")
	p.CPUDemand = 0.02
	p.MemoryBytes = 3 << 30
	return p
}

// TestVectorFitnessAvoidsCPUContendedDestination pins the multi-resource
// destination scoring (the full Eq. 2 vector) against the failure mode of
// count/memory-only best-fit.
//
// Topology after placement: w0 hosts 5 full-demand jobs (the hotspot);
// w1 hosts 2 full-demand jobs — its CPU is saturated at the node's
// capacity but it has 13 GB of memory free; w2 hosts 2 near-idle jobs —
// only ~4% CPU in use, but 10 GB resident. A count tie-break or a
// memory-best-fit destination picker chooses w1 (fewer/equal containers,
// more free memory) and lands the evicted full-demand victim on a node
// already at 100% CPU, trading one kind of contention for another. Scoring
// the resource vector — CPU usage against capacity, post-move memory
// pressure, I/O rates — sends the move to w2, whose only cost is memory
// pressure that the node can absorb.
func TestVectorFitnessAvoidsCPUContendedDestination(t *testing.T) {
	e, m, workers := buildCluster(3)
	// FirstFit + caps shape the initial placement: 5 on w0, 2 on w1
	// (CPU-bound), 2 on w2 (idle-light).
	workers[0].SetMaxContainers(5)
	workers[1].SetMaxContainers(2)
	workers[2].SetMaxContainers(2)
	for i := 0; i < 5; i++ {
		m.Submit(sim.Time(i), "hot-"+string(rune('a'+i)), cpuBoundJob())
	}
	m.Submit(5, "busy-a", cpuBoundJob())
	m.Submit(5, "busy-b", cpuBoundJob())
	m.Submit(6, "idle-a", idleLightJob())
	m.Submit(6, "idle-b", idleLightJob())

	// Reopen w1/w2 for the migration itself — the caps only existed to
	// steer FirstFit during placement.
	e.At(300, sim.PriorityState, "uncap", func() {
		workers[1].SetMaxContainers(0)
		workers[2].SetMaxContainers(0)
	})

	// Huge interval keeps the periodic tick away; the test drives Scan by
	// hand: one baseline pass to seed the monitors, one capture pass with
	// measured GE and resource vectors.
	r := New(Config{Interval: 100000})
	r.AttachCluster(e, m)
	var plans []Plan
	e.At(310, sim.PriorityMetric, "baseline", func() { r.Scan() })
	e.At(330, sim.PriorityMetric, "capture", func() { plans = r.Scan() })
	e.Run(330)

	if len(plans) != 1 {
		t.Fatalf("scan planned %d moves, want 1", len(plans))
	}
	p := plans[0]
	if p.Src != "w0" {
		t.Fatalf("move source %s, want the w0 hotspot", p.Src)
	}
	if p.Dst != "w2" {
		t.Fatalf("victim sent to %s; vector fitness must avoid the CPU-saturated w1 and pick w2", p.Dst)
	}
}

// TestVectorFitnessCountsUnmeasuredContainers pins a review-found gap: a
// destination crowded with freshly placed containers (no measured interval
// yet, so no RKind rates) must not masquerade as idle. Their instantaneous
// CPU allocation counts toward the node's load, so the move still lands on
// the genuinely quiet node.
func TestVectorFitnessCountsUnmeasuredContainers(t *testing.T) {
	e, m, workers := buildCluster(3)
	workers[0].SetMaxContainers(5)
	workers[1].SetMaxContainers(2)
	workers[2].SetMaxContainers(2)
	for i := 0; i < 5; i++ {
		m.Submit(sim.Time(i), "hot-"+string(rune('a'+i)), cpuBoundJob())
	}
	// w1's near-idle jobs are placed early (FirstFit fills w0 then w1) and
	// are measured by the capture scan; w2's full-demand jobs arrive only
	// just before it, so the scan sees them Defined=false with no measured
	// rates — but their allocations already saturate w2's CPU.
	m.Submit(6, "idle-a", idleLightJob())
	m.Submit(6, "idle-b", idleLightJob())
	m.Submit(325, "fresh-a", cpuBoundJob())
	m.Submit(325, "fresh-b", cpuBoundJob())

	e.At(327, sim.PriorityState, "uncap", func() {
		workers[1].SetMaxContainers(0)
		workers[2].SetMaxContainers(0)
	})
	r := New(Config{Interval: 100000})
	r.AttachCluster(e, m)
	var plans []Plan
	e.At(310, sim.PriorityMetric, "baseline", func() { r.Scan() })
	e.At(330, sim.PriorityMetric, "capture", func() { plans = r.Scan() })
	e.Run(330)

	if len(plans) != 1 {
		t.Fatalf("scan planned %d moves, want 1", len(plans))
	}
	if plans[0].Dst != "w1" {
		t.Fatalf("victim sent to %s; w2's unmeasured full-demand pool must count as load, leaving w1 the quiet node", plans[0].Dst)
	}
}

// TestVectorFitnessPrefersMemoryHeadroomWhenCPUEqual pins the memory
// dimension: with CPU usage equal on both candidates, the move must land
// on the node with more memory headroom.
func TestVectorFitnessPrefersMemoryHeadroomWhenCPUEqual(t *testing.T) {
	e, m, workers := buildCluster(3)
	workers[0].SetMaxContainers(5)
	workers[1].SetMaxContainers(2)
	workers[2].SetMaxContainers(2)
	for i := 0; i < 5; i++ {
		m.Submit(sim.Time(i), "hot-"+string(rune('a'+i)), cpuBoundJob())
	}
	// Same CPU profile on both candidates; w1's jobs reserve 3x the memory.
	heavy := cpuBoundJob()
	heavy.MemoryBytes = 3 << 30
	m.Submit(5, "busy-a", heavy)
	m.Submit(5, "busy-b", heavy)
	m.Submit(6, "lean-a", cpuBoundJob())
	m.Submit(6, "lean-b", cpuBoundJob())

	e.At(300, sim.PriorityState, "uncap", func() {
		workers[1].SetMaxContainers(0)
		workers[2].SetMaxContainers(0)
	})
	r := New(Config{Interval: 100000})
	r.AttachCluster(e, m)
	var plans []Plan
	e.At(310, sim.PriorityMetric, "baseline", func() { r.Scan() })
	e.At(330, sim.PriorityMetric, "capture", func() { plans = r.Scan() })
	e.Run(330)

	if len(plans) != 1 {
		t.Fatalf("scan planned %d moves, want 1", len(plans))
	}
	if plans[0].Dst != "w2" {
		t.Fatalf("victim sent to %s, want the memory-lean w2", plans[0].Dst)
	}
}

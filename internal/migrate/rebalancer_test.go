package migrate

import (
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/dlmodel"
	"repro/internal/sim"
)

// longJob is a profile that cannot finish inside the test windows, with a
// fast-decaying loss so growth efficiency falls visibly with age.
func longJob(name string) dlmodel.Profile {
	return dlmodel.Profile{
		Name:         name,
		Framework:    dlmodel.PyTorch,
		EvalFunction: "Squared Loss",
		Direction:    dlmodel.Decreasing,
		TotalWork:    5000,
		Curve:        dlmodel.ExpCurve{Start: 100, Final: 1, K: 0.02},
		CPUDemand:    1.0,
		MemoryBytes:  1 << 30,
	}
}

// buildCluster wires n workers under FirstFit so load concentrates on the
// lowest-index nodes — the hotspot shape the rebalancer must dissolve.
func buildCluster(n int) (*sim.Engine, *cluster.Manager, []*cluster.Worker) {
	e := sim.NewEngine()
	workers := make([]*cluster.Worker, n)
	for i := range workers {
		workers[i], _ = cluster.NewSimWorker("w"+string(rune('0'+i)), e, 1.0)
	}
	return e, cluster.NewManager(e, workers, cluster.FirstFit), workers
}

func TestConfigValidation(t *testing.T) {
	for name, cfg := range map[string]Config{
		"negative interval": {Interval: -1},
		"negative move cap": {MaxMovesPerScan: -1},
		// A cost Manager.Migrate would refuse must fail here, not turn
		// every planned move into a silent no-op.
		"NaN cost":      {Cost: cluster.MigrationCost{FreezeSec: math.NaN()}},
		"negative cost": {Cost: cluster.MigrationCost{ThawSec: -1}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s accepted", name)
				}
			}()
			New(cfg)
		}()
	}
	r := New(Config{})
	cfg := r.cfg
	if cfg.Interval != 20 || cfg.MaxMovesPerScan != 1 {
		t.Fatalf("defaults = %+v", cfg)
	}
	if cfg.Cost != cluster.DefaultMigrationCost() {
		t.Fatalf("default cost = %+v", cfg.Cost)
	}
}

// A pressure gap (4 containers vs 0) triggers migrations that spread the
// pool, and the moves pick the lowest-GE victims.
func TestPressureGapRebalances(t *testing.T) {
	e, m, workers := buildCluster(2)
	r := New(Config{Interval: 10})
	r.AttachCluster(e, m)
	for i := 0; i < 4; i++ {
		m.Submit(sim.Time(i), "job-"+string(rune('a'+i)), longJob("LJ"))
	}
	e.Run(100)
	if got := workers[0].RunningCount() - workers[1].RunningCount(); got < -1 || got > 1 {
		t.Fatalf("pool still skewed: w0=%d w1=%d",
			workers[0].RunningCount(), workers[1].RunningCount())
	}
	if r.executed == 0 || m.Migrated() == 0 {
		t.Fatalf("no migrations executed (scans=%d plans=%d)", r.scans, r.plans)
	}
	// Once balanced the rebalancer stops: with a minimum gap of 2 a 2/2
	// split (or a transient 3/1) plans nothing further, so plans stay
	// bounded.
	if r.plans > 2 {
		t.Fatalf("rebalancer kept planning after balance: %d plans", r.plans)
	}
}

// A balanced cluster plans nothing — no ping-pong.
func TestBalancedClusterPlansNothing(t *testing.T) {
	e, m, _ := buildCluster(2)
	r := New(Config{Interval: 10})
	r.AttachCluster(e, m)
	// LeastLoaded-style manual spread: cap each worker at 1 so FirstFit
	// lands one job on each.
	for _, w := range m.Workers() {
		w.SetMaxContainers(1)
	}
	m.Submit(0, "a", longJob("LJ"))
	m.Submit(0, "b", longJob("LJ"))
	e.Run(100)
	if r.plans != 0 {
		t.Fatalf("balanced cluster produced %d plans", r.plans)
	}
	if r.scans == 0 {
		t.Fatal("rebalancer never scanned")
	}
}

// The victim is the source's lowest-GE movable container: with two old
// jobs and a fresh one on the hot node, an old job moves, and the plan
// carries its GE trail.
func TestPressureGapMovesLowestGEVictim(t *testing.T) {
	e, m, _ := buildCluster(2)
	// FirstFit stacks all three on w0. By t=300 the old jobs' exponential
	// loss has flattened, so their GE is a tiny fraction of the fresh
	// job's.
	m.Submit(0, "old-a", longJob("LJ"))
	m.Submit(0, "old-b", longJob("LJ"))
	m.Submit(300, "new-a", longJob("LJ"))

	// The huge interval keeps the periodic tick out of the window so the
	// test drives Scan by hand and can inspect the plan before anything
	// executes.
	r := New(Config{Interval: 100000})
	r.AttachCluster(e, m)

	var plans []Plan
	e.At(310, sim.PriorityMetric, "baseline", func() { r.Scan() })
	e.At(330, sim.PriorityMetric, "capture", func() {
		plans = r.Scan()
	})
	e.Run(330)
	if len(plans) != 1 {
		t.Fatalf("scan planned %d moves, want 1", len(plans))
	}
	p := plans[0]
	if p.Src != "w0" || p.Dst != "w1" {
		t.Fatalf("move %s -> %s, want w0 -> w1", p.Src, p.Dst)
	}
	if p.Job != "old-a" && p.Job != "old-b" {
		t.Fatalf("victim %q is not one of the old, low-GE jobs", p.Job)
	}
	if len(p.GEHistory) == 0 || p.GEHistory[len(p.GEHistory)-1] != p.G {
		t.Fatalf("GE history %v does not end at plan G %g", p.GEHistory, p.G)
	}
}

// New containers are not movable until they have a measured GE interval:
// the first scan after an arrival never migrates it.
func TestNewContainersAreNotMovable(t *testing.T) {
	e, m, _ := buildCluster(2)
	r := New(Config{Interval: 10})
	r.AttachCluster(e, m)
	m.Submit(5, "a", longJob("LJ"))
	m.Submit(5, "b", longJob("LJ"))
	m.Submit(5, "c", longJob("LJ"))
	var plans []Plan
	e.At(10, sim.PriorityMetric, "capture", func() {
		// First scan after the arrivals: containers are seen for the
		// first time, no GE interval exists, nothing is movable.
		plans = r.Scan()
	})
	e.Run(12)
	if len(plans) != 0 {
		t.Fatalf("first scan planned %d moves for unmeasured containers", len(plans))
	}
}

// Failed and cordoned workers are excluded: no victim is pulled from a
// failed node, and nothing lands on a cordoned one.
func TestRebalancerRespectsCordonAndFailure(t *testing.T) {
	e, m, workers := buildCluster(3)
	r := New(Config{Interval: 10})
	r.AttachCluster(e, m)
	for i := 0; i < 4; i++ {
		m.Submit(sim.Time(i), "job-"+string(rune('a'+i)), longJob("LJ"))
	}
	// w1 is cordoned before the first scan: every move must target w2.
	e.At(5, sim.PriorityState, "cordon", workers[1].Cordon)
	e.Run(100)
	if got := workers[1].RunningCount(); got != 0 {
		t.Fatalf("cordoned worker received %d containers", got)
	}
	if workers[2].RunningCount() == 0 {
		t.Fatal("no container moved to the only open worker")
	}
}

func TestScanBeforeAttachPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Scan before AttachCluster did not panic")
		}
	}()
	New(Config{}).Scan()
}

func TestDoubleAttachPanics(t *testing.T) {
	e, m, _ := buildCluster(1)
	r := New(Config{})
	r.AttachCluster(e, m)
	defer func() {
		if recover() == nil {
			t.Error("double attach did not panic")
		}
	}()
	r.AttachCluster(e, m)
}

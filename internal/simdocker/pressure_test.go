package simdocker

import (
	"math"
	"testing"

	"repro/internal/sim"
)

// memJob is a fakeJob with a memory footprint.
type memJob struct {
	fakeJob
	memory float64
}

func (m *memJob) MemoryBytes() float64  { return m.memory }
func (m *memJob) BlkIOPerWork() float64 { return 0 }
func (m *memJob) NetIOPerWork() float64 { return 0 }

func TestContentionOverheadSlowsWork(t *testing.T) {
	run := func(h float64, jobs int) sim.Time {
		e := sim.NewEngine()
		d := NewDaemon(e, 1.0)
		d.SetContentionOverhead(h)
		for i := 0; i < jobs; i++ {
			if _, err := d.Run(RunSpec{Workload: &fakeJob{total: 30, demand: 1}}); err != nil {
				t.Fatal(err)
			}
		}
		e.RunAll()
		return e.Now()
	}
	// Alone: no overhead regardless of h.
	if got := run(0.10, 1); got != 30 {
		t.Fatalf("solo with overhead finished at %v, want 30", got)
	}
	// Two jobs at h=0.1: total work 60 delivered at rate 1/(1.1) ->
	// makespan 66.
	if got := run(0.10, 2); math.Abs(float64(got)-66) > 1e-9 {
		t.Fatalf("pair with overhead finished at %v, want 66", got)
	}
	// Zero overhead: exactly 60.
	if got := run(0, 2); math.Abs(float64(got)-60) > 1e-9 {
		t.Fatalf("pair without overhead finished at %v, want 60", got)
	}
}

func TestMemoryThrashPenalty(t *testing.T) {
	e := sim.NewEngine()
	d := NewDaemon(e, 1.0)
	d.SetMemoryCapacity(1000)
	// Two jobs of 750 bytes each: 1500/1000 = 50% overcommit -> efficiency
	// 1/(1+4*0.5) = 1/3. Total work 20 at rate 1/3 -> makespan 60.
	for i := 0; i < 2; i++ {
		j := &memJob{fakeJob: fakeJob{total: 10, demand: 1}, memory: 750}
		if _, err := d.Run(RunSpec{Workload: j}); err != nil {
			t.Fatal(err)
		}
	}
	if used := d.MemoryUsed(); used != 1500 {
		t.Fatalf("MemoryUsed = %v", used)
	}
	e.RunAll()
	if got := float64(e.Now()); math.Abs(got-60) > 1e-9 {
		t.Fatalf("thrashed makespan = %v, want 60", got)
	}
}

func TestMemoryWithinCapacityNoPenalty(t *testing.T) {
	e := sim.NewEngine()
	d := NewDaemon(e, 1.0)
	d.SetMemoryCapacity(2000)
	for i := 0; i < 2; i++ {
		j := &memJob{fakeJob: fakeJob{total: 10, demand: 1}, memory: 750}
		if _, err := d.Run(RunSpec{Workload: j}); err != nil {
			t.Fatal(err)
		}
	}
	e.RunAll()
	if got := float64(e.Now()); math.Abs(got-20) > 1e-9 {
		t.Fatalf("makespan = %v, want 20 (no thrash)", got)
	}
}

func TestSettersRejectLateCalls(t *testing.T) {
	e := sim.NewEngine()
	d := NewDaemon(e, 1.0)
	if _, err := d.Run(RunSpec{Workload: &fakeJob{total: 1, demand: 1}}); err != nil {
		t.Fatal(err)
	}
	for name, fn := range map[string]func(){
		"contention": func() { d.SetContentionOverhead(0.1) },
		"memory":     func() { d.SetMemoryCapacity(100) },
		"prefix":     func() { d.SetIDPrefix("x") },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("late setter did not panic")
				}
			}()
			fn()
		})
	}
}

func TestSettersRejectNegative(t *testing.T) {
	e := sim.NewEngine()
	d := NewDaemon(e, 1.0)
	for name, fn := range map[string]func(){
		"contention": func() { d.SetContentionOverhead(-1) },
		"memory":     func() { d.SetMemoryCapacity(-1) },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("negative setter did not panic")
				}
			}()
			fn()
		})
	}
}

func TestIDPrefixNamespacesContainers(t *testing.T) {
	e := sim.NewEngine()
	a := NewDaemon(e, 1.0)
	a.SetIDPrefix("w0")
	b := NewDaemon(e, 1.0)
	b.SetIDPrefix("w1")
	ca, _ := a.Run(RunSpec{Workload: &fakeJob{total: 1, demand: 1}})
	cb, _ := b.Run(RunSpec{Workload: &fakeJob{total: 1, demand: 1}})
	if ca.ID() == cb.ID() {
		t.Fatalf("ids collide across daemons: %s", ca.ID())
	}
	if ca.ID() != "w0.c0001" || cb.ID() != "w1.c0001" {
		t.Fatalf("ids = %s / %s", ca.ID(), cb.ID())
	}
}

func TestEfficiencyComposition(t *testing.T) {
	e := sim.NewEngine()
	d := NewDaemon(e, 1.0)
	d.SetContentionOverhead(0.5)
	d.SetMemoryCapacity(1000)
	// Two containers (contention 1/1.5) with 25% memory overcommit
	// (thrash 1/2): combined efficiency 1/3.
	for i := 0; i < 2; i++ {
		j := &memJob{fakeJob: fakeJob{total: 10, demand: 1}, memory: 625}
		if _, err := d.Run(RunSpec{Workload: j}); err != nil {
			t.Fatal(err)
		}
	}
	e.RunAll()
	if got := float64(e.Now()); math.Abs(got-60) > 1e-9 {
		t.Fatalf("composed-penalty makespan = %v, want 60", got)
	}
}

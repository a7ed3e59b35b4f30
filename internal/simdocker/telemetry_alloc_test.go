package simdocker

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/telemetry"
)

// The telemetry layer must be free on the daemon's hot path. Two guards
// pin that promise from the simdocker side (the tracer's own Record guard
// lives in internal/telemetry):
//
//   - registering a tracer-recording exit hook must not perturb the
//     steady-state settle+reallocate guard — still zero allocations;
//   - the hook body itself (container accessors + Tracer.Record) must be
//     allocation-free, so when an exit does fire the only allocations on
//     that path are the pre-existing exit bookkeeping, never telemetry.
//
// The FlowCon Algorithm 1 path carries no telemetry hooks at all, so the
// existing flowcon AllocsPerRun guard already covers it unchanged.
func TestSettleReallocateAllocsZeroWithTracer(t *testing.T) {
	tr := telemetry.NewTracer(0)
	eng, d, ids := steadyDaemon(t, 64)
	d.OnExit(func(c *Container) {
		tr.Record(float64(c.FinishedAt()), telemetry.PhaseExit, c.Name(), "node", c.ID())
	})
	if avg := refillAllocs(t, eng, d, ids[10], 200); avg != 0 {
		t.Fatalf("settle+reallocate with tracer hook allocates %.1f objects per op, want 0", avg)
	}
}

// TestExitHookRecordAllocsZero measures the exit-hook body exactly as the
// daemon invokes it — accessors on a live *Container feeding
// Tracer.Record — and requires zero allocations, including once the
// bounded ring has wrapped.
func TestExitHookRecordAllocsZero(t *testing.T) {
	tr := telemetry.NewTracer(64) // small ring so the loop exercises wraparound
	eng := sim.NewEngine()
	d := NewDaemon(eng, 1.0)
	hook := func(c *Container) {
		tr.Record(float64(c.FinishedAt()), telemetry.PhaseExit, c.Name(), "node", c.ID())
	}
	d.OnExit(hook)
	d.Pull(Image{Ref: "img", SizeBytes: 1})
	if _, err := d.Run(RunSpec{Image: "img", Workload: &steadyWork{rem: 1e9}}); err != nil {
		t.Fatal(err)
	}
	eng.Run(1)
	c := d.PS(false)[0]
	avg := testing.AllocsPerRun(200, func() { hook(c) })
	if avg != 0 {
		t.Fatalf("exit hook allocates %.1f objects per record, want 0", avg)
	}
	if tr.Len() != 64 {
		t.Fatalf("ring holds %d spans, want full capacity 64", tr.Len())
	}
	if tr.Dropped() == 0 {
		t.Fatalf("expected wraparound drops after %d records into a 64-slot ring", 201)
	}
}

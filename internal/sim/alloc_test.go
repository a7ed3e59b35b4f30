package sim

import "testing"

// TestScheduleCancelAllocsOne is the regression guard for the engine's
// hot path: scheduling and eagerly canceling an event against a warm queue
// costs exactly the Event object — the heap itself must never allocate in
// steady state. (PR 3 removed the lazy-deletion tombstones; this pins the
// remaining cost so it cannot silently grow.)
func TestScheduleCancelAllocsOne(t *testing.T) {
	e := NewEngine()
	fn := func() {}
	for i := 0; i < 256; i++ {
		e.At(1000, PriorityState, "fill", fn)
	}
	avg := testing.AllocsPerRun(1000, func() {
		e.At(10, PriorityState, "x", fn).Cancel()
	})
	if avg > 1 {
		t.Fatalf("schedule+cancel allocates %.1f objects per op, want <= 1 (the Event)", avg)
	}
}

// TestRearmAllocsZero: re-queuing a fired event reuses it, so a periodic
// event that re-arms itself costs no allocation against a warm queue.
func TestRearmAllocsZero(t *testing.T) {
	e := NewEngine()
	fn := func() {}
	for i := 0; i < 256; i++ {
		e.At(1e9, PriorityState, "fill", fn)
	}
	ev := e.At(0, PriorityMetric, "tick", fn)
	avg := testing.AllocsPerRun(1000, func() {
		e.Run(e.Now() + 1)
		e.Rearm(ev, e.Now()+1)
	})
	if avg != 0 {
		t.Fatalf("run+re-arm allocates %.1f objects per op, want 0", avg)
	}
}

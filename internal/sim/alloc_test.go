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

package sim

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestEngineRunsInTimeOrder(t *testing.T) {
	e := NewEngine()
	var got []Time
	times := []Time{5, 1, 3, 2, 4}
	for _, at := range times {
		at := at
		e.At(at, PriorityState, "t", func() { got = append(got, at) })
	}
	if n := e.RunAll(); n != len(times) {
		t.Fatalf("executed %d events, want %d", n, len(times))
	}
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
		t.Fatalf("events out of order: %v", got)
	}
	if e.Now() != 5 {
		t.Fatalf("clock = %v, want 5", e.Now())
	}
}

func TestEnginePriorityTiebreak(t *testing.T) {
	e := NewEngine()
	var got []string
	e.At(10, PriorityMetric, "metric", func() { got = append(got, "metric") })
	e.At(10, PriorityState, "state", func() { got = append(got, "state") })
	e.At(10, PriorityExecutor, "exec", func() { got = append(got, "exec") })
	e.At(10, PriorityListener, "listen", func() { got = append(got, "listen") })
	e.RunAll()
	want := []string{"state", "listen", "exec", "metric"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestEngineSeqTiebreakFIFO(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(1, PriorityState, "s", func() { got = append(got, i) })
	}
	e.RunAll()
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-time same-priority events not FIFO: %v", got)
		}
	}
}

func TestEngineAfter(t *testing.T) {
	e := NewEngine()
	var at Time
	e.At(3, PriorityState, "outer", func() {
		e.After(2, PriorityState, "inner", func() { at = e.Now() })
	})
	e.RunAll()
	if at != 5 {
		t.Fatalf("inner ran at %v, want 5", at)
	}
}

func TestEngineCancel(t *testing.T) {
	e := NewEngine()
	ran := false
	ev := e.At(1, PriorityState, "x", func() { ran = true })
	ev.Cancel()
	if !ev.canceled {
		t.Fatal("Canceled() = false after Cancel")
	}
	e.RunAll()
	if ran {
		t.Fatal("canceled event ran")
	}
}

func TestEngineCancelFromEarlierEvent(t *testing.T) {
	e := NewEngine()
	ran := false
	later := e.At(5, PriorityState, "later", func() { ran = true })
	e.At(1, PriorityState, "earlier", func() { later.Cancel() })
	e.RunAll()
	if ran {
		t.Fatal("event canceled mid-run still ran")
	}
}

func TestEngineHorizon(t *testing.T) {
	e := NewEngine()
	var got []Time
	for _, at := range []Time{1, 2, 3, 4} {
		at := at
		e.At(at, PriorityState, "t", func() { got = append(got, at) })
	}
	n := e.Run(2)
	if n != 2 {
		t.Fatalf("executed %d, want 2", n)
	}
	if e.Now() != 2 {
		t.Fatalf("clock = %v, want 2", e.Now())
	}
	// Remaining events still run on a later call.
	n = e.RunAll()
	if n != 2 || e.Now() != 4 {
		t.Fatalf("second run executed %d ended at %v, want 2 at 4", n, e.Now())
	}
}

func TestEngineHorizonAdvancesClockWhenIdle(t *testing.T) {
	e := NewEngine()
	e.Run(100)
	if e.Now() != 100 {
		t.Fatalf("clock = %v, want 100", e.Now())
	}
}

func TestEngineStop(t *testing.T) {
	e := NewEngine()
	count := 0
	e.At(1, PriorityState, "a", func() { count++; e.Stop() })
	e.At(2, PriorityState, "b", func() { count++ })
	e.RunAll()
	if count != 1 {
		t.Fatalf("count = %d, want 1 (Stop should halt the loop)", count)
	}
	// Resume.
	e.RunAll()
	if count != 2 {
		t.Fatalf("count after resume = %d, want 2", count)
	}
}

func TestEngineSchedulePastPanics(t *testing.T) {
	e := NewEngine()
	e.At(5, PriorityState, "x", func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(1, PriorityState, "past", func() {})
	})
	e.RunAll()
}

func TestEngineNegativeAfterPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Error("negative After did not panic")
		}
	}()
	e.After(-1, PriorityState, "neg", func() {})
}

// TestEngineRejectsBadTimes: every schedule that cannot order against the
// clock — the past, NaN, a negative or NaN delay — panics at the call and
// leaves the queue and the clock untouched.
func TestEngineRejectsBadTimes(t *testing.T) {
	nan := math.NaN()
	for _, tc := range []struct {
		name     string
		schedule func(e *Engine)
	}{
		{"At past", func(e *Engine) { e.At(1, PriorityState, "x", func() {}) }},
		{"At NaN", func(e *Engine) { e.At(Time(nan), PriorityState, "x", func() {}) }},
		{"After negative", func(e *Engine) { e.After(-1, PriorityState, "x", func() {}) }},
		{"After NaN", func(e *Engine) { e.After(nan, PriorityState, "x", func() {}) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := NewEngine()
			e.Run(5)
			func() {
				defer func() {
					if recover() == nil {
						t.Error("schedule did not panic")
					}
				}()
				tc.schedule(e)
			}()
			if e.Len() != 0 || e.Now() != 5 {
				t.Fatalf("after rejected schedule: Len %d, clock %v; want 0 at 5", e.Len(), e.Now())
			}
		})
	}
}

func TestEngineNilCallbackPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Error("nil callback did not panic")
		}
	}()
	e.At(1, PriorityState, "nil", nil)
}

func TestCancelRemovesFromQueue(t *testing.T) {
	e := NewEngine()
	a := e.At(1, PriorityState, "a", func() {})
	e.At(2, PriorityState, "b", func() {})
	if e.Len() != 2 {
		t.Fatalf("Len = %d, want 2", e.Len())
	}
	a.Cancel()
	if e.Len() != 1 {
		t.Fatalf("Len after cancel = %d, want 1 (canceled event left a tombstone)", e.Len())
	}
	a.Cancel() // idempotent
	if e.Len() != 1 {
		t.Fatalf("Len after double cancel = %d, want 1", e.Len())
	}
	if n := e.RunAll(); n != 1 {
		t.Fatalf("executed %d events, want 1", n)
	}
}

// NextAt reads the earliest pending event without running it: Infinity
// on an empty queue, and a canceled head no longer counts.
func TestNextAt(t *testing.T) {
	e := NewEngine()
	if got := e.NextAt(); got != Infinity {
		t.Fatalf("NextAt on an empty engine = %v, want Infinity", got)
	}
	e.At(3, PriorityExecutor, "late", func() {})
	early := e.At(2, PriorityState, "early", func() {})
	if got := e.NextAt(); got != 2 {
		t.Fatalf("NextAt = %v, want 2", got)
	}
	early.Cancel()
	if got := e.NextAt(); got != 3 {
		t.Fatalf("NextAt after canceling the head = %v, want 3", got)
	}
	e.Run(2.5)
	if got := e.NextAt(); got != 3 || e.Now() != 2.5 {
		t.Fatalf("after Run(2.5): NextAt %v at %v, want 3 at 2.5", got, e.Now())
	}
}

func TestCancelManyKeepsHeapOrder(t *testing.T) {
	// Eagerly removing events from the middle of the heap must not disturb
	// the execution order of the survivors.
	e := NewEngine()
	var got []Time
	var evs []*Event
	for i := 0; i < 100; i++ {
		at := Time(i)
		evs = append(evs, e.At(at, PriorityState, "x", func() { got = append(got, at) }))
	}
	for i := 1; i < 100; i += 2 {
		evs[i].Cancel()
	}
	if e.Len() != 50 {
		t.Fatalf("Len after cancels = %d, want 50", e.Len())
	}
	e.RunAll()
	if len(got) != 50 {
		t.Fatalf("executed %d, want 50", len(got))
	}
	for i, at := range got {
		if at != Time(2*i) {
			t.Fatalf("execution order disturbed: got[%d] = %v, want %v", i, at, Time(2*i))
		}
	}
}

// Peek returns the time of the earliest pending event and true, or
// (0, false) if none is queued. Canceled events are removed from the queue
// eagerly, so Peek is a true O(1) read and never mutates the engine; the
// tests below hold eager cancellation to that.
func (e *Engine) Peek() (Time, bool) {
	if len(e.queue) == 0 {
		return 0, false
	}
	return e.queue[0].at, true
}

// After eager cancellation, Peek is a pure O(1) read: it never pops and
// never changes the queue.
func TestPeekIsPureRead(t *testing.T) {
	e := NewEngine()
	a := e.At(3, PriorityState, "a", func() {})
	e.At(7, PriorityState, "b", func() {})
	a.Cancel()
	before := e.Len()
	for i := 0; i < 5; i++ {
		if at, ok := e.Peek(); !ok || at != 7 {
			t.Fatalf("Peek = (%v,%v), want (7,true)", at, ok)
		}
	}
	if e.Len() != before {
		t.Fatalf("Peek mutated the queue: Len %d -> %d", before, e.Len())
	}
}

func TestEnginePeek(t *testing.T) {
	e := NewEngine()
	if _, ok := e.Peek(); ok {
		t.Fatal("Peek on empty queue reported an event")
	}
	ev := e.At(7, PriorityState, "a", func() {})
	e.At(9, PriorityState, "b", func() {})
	if at, ok := e.Peek(); !ok || at != 7 {
		t.Fatalf("Peek = (%v,%v), want (7,true)", at, ok)
	}
	ev.Cancel()
	if at, ok := e.Peek(); !ok || at != 9 {
		t.Fatalf("Peek after cancel = (%v,%v), want (9,true)", at, ok)
	}
}

func TestEngineEventsScheduledDuringRun(t *testing.T) {
	// An event chain built during execution must still run in order.
	e := NewEngine()
	var got []Time
	var chain func()
	chain = func() {
		got = append(got, e.Now())
		if e.Now() < 5 {
			e.After(1, PriorityState, "chain", chain)
		}
	}
	e.At(1, PriorityState, "chain", chain)
	e.RunAll()
	want := []Time{1, 2, 3, 4, 5}
	if len(got) != len(want) {
		t.Fatalf("chain = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("chain = %v, want %v", got, want)
		}
	}
}

// TestEngineOrderProperty checks, for random event sets, that execution
// order always equals the sort order by (time, priority, insertion).
func TestEngineOrderProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		count := int(n%64) + 1
		e := NewEngine()
		type rec struct {
			at   Time
			prio Priority
			seq  int
		}
		var want []rec
		var got []rec
		for i := 0; i < count; i++ {
			r := rec{Time(rng.Intn(10)), Priority(rng.Intn(4)), i}
			want = append(want, r)
			e.At(r.at, r.prio, "p", func() { got = append(got, r) })
		}
		sort.SliceStable(want, func(i, j int) bool {
			if want[i].at != want[j].at {
				return want[i].at < want[j].at
			}
			return want[i].prio < want[j].prio
		})
		e.RunAll()
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestEngineExecutedCounter(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 5; i++ {
		e.At(Time(i), PriorityState, "x", func() {})
	}
	e.RunAll()
	if e.Executed() != 5 {
		t.Fatalf("Executed = %d, want 5", e.Executed())
	}
}

// TestRearmOrdersAsFreshEvent: a periodic event that re-arms itself runs
// at exactly the instants, and in exactly the same-instant order, as one
// that schedules a new event with At each time.
func TestRearmOrdersAsFreshEvent(t *testing.T) {
	trace := func(rearm bool) []string {
		e := NewEngine()
		var got []string
		var ev *Event
		var tick func()
		tick = func() {
			got = append(got, fmt.Sprintf("tick@%g", float64(e.Now())))
			// A same-instant peer queued before the next tick is armed
			// runs first at that instant; one queued after runs second.
			e.At(e.Now()+1, PriorityMetric, "before", func() { got = append(got, "before") })
			if rearm {
				e.Rearm(ev, e.Now()+1)
			} else {
				e.After(1, PriorityMetric, "tick", tick)
			}
			e.At(e.Now()+1, PriorityMetric, "after", func() { got = append(got, "after") })
		}
		ev = e.After(1, PriorityMetric, "tick", tick)
		e.Run(4)
		return got
	}
	want, got := trace(false), trace(true)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("re-armed order %v, want %v", got, want)
	}
	if len(got) != 10 {
		t.Fatalf("got %v: want 4 ticks and their peers", got)
	}
}

// TestCancelRearmedEvent defines Cancel on a re-armed handle: it removes
// the queued event like any other, and re-arming the canceled handle
// queues it once more.
func TestCancelRearmedEvent(t *testing.T) {
	e := NewEngine()
	runs := 0
	ev := e.At(1, PriorityState, "x", func() { runs++ })
	e.Run(1)
	e.Rearm(ev, 2)
	if e.Len() != 1 || ev.At() != 2 {
		t.Fatalf("re-armed: Len %d, At %g", e.Len(), float64(ev.At()))
	}
	ev.Cancel()
	if e.Len() != 0 {
		t.Fatalf("Cancel left %d queued events", e.Len())
	}
	e.Run(5)
	if runs != 1 {
		t.Fatalf("canceled re-armed event ran: %d runs", runs)
	}
	e.Rearm(ev, 6)
	e.RunAll()
	if runs != 2 {
		t.Fatalf("re-armed after Cancel: %d runs, want 2", runs)
	}
	ev.Cancel() // fired: a no-op
	if e.Len() != 0 {
		t.Fatal("Cancel on a fired re-armed event queued something")
	}
}

// TestRearmRejectsMisuse: re-arming a queued event, another engine's
// event, or at a time before now or NaN panics.
func TestRearmRejectsMisuse(t *testing.T) {
	e := NewEngine()
	ev := e.At(2, PriorityState, "x", func() {})
	other := NewEngine().At(1, PriorityState, "y", func() {})
	for _, tc := range []struct {
		name string
		fn   func()
	}{
		{"queued", func() { e.Rearm(ev, 3) }},
		{"another engine", func() { e.Rearm(other, 3) }},
		{"past", func() { e.RunAll(); e.Rearm(ev, 1) }},
		{"NaN", func() { e.Rearm(ev, Time(math.NaN())) }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Rearm did not panic", tc.name)
				}
			}()
			tc.fn()
		}()
	}
}

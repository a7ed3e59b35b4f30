package telemetry

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// fixedClock pins the wall stamp so export output is assertable.
func fixedClock(t *Tracer) {
	at := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	t.clock = func() time.Time { return at }
}

func TestTracerRecordsInOrder(t *testing.T) {
	tr := NewTracer(8)
	fixedClock(tr)
	tr.Record(1.5, PhaseSubmit, "job-a", "", "")
	tr.Record(2.0, PhaseAdmit, "job-a", "worker-0", "")
	tr.Record(2.0, PhasePlace, "job-a", "worker-0", "worker-0-c1")
	tr.Record(9.25, PhaseExit, "job-a", "worker-0", "worker-0-c1")

	spans := tr.Spans("fixed [seed=1]")
	if len(spans) != 4 {
		t.Fatalf("got %d spans, want 4", len(spans))
	}
	wantPhases := []Phase{PhaseSubmit, PhaseAdmit, PhasePlace, PhaseExit}
	for i, s := range spans {
		if s.Phase != wantPhases[i] {
			t.Errorf("span %d phase = %q, want %q", i, s.Phase, wantPhases[i])
		}
		if s.Job != "job-a" || s.Run != "fixed [seed=1]" {
			t.Errorf("span %d mislabeled: %+v", i, s)
		}
	}
	if spans[0].SimSec != 1.5 || spans[3].SimSec != 9.25 {
		t.Errorf("sim stamps wrong: %g .. %g", spans[0].SimSec, spans[3].SimSec)
	}
	if spans[0].Wall != "2026-08-08T12:00:00Z" {
		t.Errorf("wall stamp = %q", spans[0].Wall)
	}
	if got := tr.Len(); got != 4 {
		t.Errorf("Len = %d, want 4", got)
	}
	if got := tr.Dropped(); got != 0 {
		t.Errorf("Dropped = %d, want 0", got)
	}
}

func TestTracerRingWraps(t *testing.T) {
	tr := NewTracer(4)
	fixedClock(tr)
	for i := 0; i < 10; i++ {
		tr.Record(float64(i), PhaseRun, fmt.Sprintf("job-%d", i), "w", "")
	}
	if got := tr.Len(); got != 4 {
		t.Fatalf("Len = %d, want 4", got)
	}
	if got := tr.Dropped(); got != 6 {
		t.Fatalf("Dropped = %d, want 6", got)
	}
	spans := tr.Spans("")
	for i, s := range spans {
		if want := fmt.Sprintf("job-%d", 6+i); s.Job != want {
			t.Errorf("span %d = %q, want %q (oldest retained first)", i, s.Job, want)
		}
	}
}

func TestTracerDefaultCapacity(t *testing.T) {
	tr := NewTracer(0)
	if len(tr.ring) != DefaultTraceCapacity {
		t.Fatalf("default ring = %d, want %d", len(tr.ring), DefaultTraceCapacity)
	}
}

// A nil tracer must be a safe no-op: every hook site relies on this
// instead of guarding.
func TestNilTracerIsNoOp(t *testing.T) {
	var tr *Tracer
	tr.Record(1, PhaseSubmit, "j", "", "")
	if tr.Len() != 0 || tr.Dropped() != 0 || tr.Spans("x") != nil {
		t.Fatal("nil tracer not inert")
	}
	if err := tr.WriteJSONL(&strings.Builder{}, "x"); err != nil {
		t.Fatal(err)
	}
}

func TestWriteJSONL(t *testing.T) {
	tr := NewTracer(8)
	fixedClock(tr)
	tr.Record(12.5, PhasePlace, "job-b", "worker-3", "worker-3-c7")
	var b strings.Builder
	if err := tr.WriteJSONL(&b, "poisson [seed=2]"); err != nil {
		t.Fatal(err)
	}
	want := `{"job":"job-b","phase":"place","sim_sec":12.5,"wall":"2026-08-08T12:00:00Z","worker":"worker-3","note":"worker-3-c7","run":"poisson [seed=2]"}` + "\n"
	if b.String() != want {
		t.Fatalf("JSONL line:\n got %q\nwant %q", b.String(), want)
	}
}

// TestRecordAllocsZero is the telemetry-hook half of the hot-path
// allocation guards: a warm ring must absorb spans without allocating,
// so wiring a tracer into the manager and the daemon exit hooks cannot
// move the settle/reallocate/Algorithm 1 AllocsPerRun bounds.
func TestRecordAllocsZero(t *testing.T) {
	tr := NewTracer(1024)
	avg := testing.AllocsPerRun(500, func() {
		tr.Record(42.0, PhaseExit, "job-a", "worker-1", "worker-1-c2")
	})
	if avg != 0 {
		t.Fatalf("Record allocates %.1f objects per span, want 0", avg)
	}
}

// Tracer is documented concurrency-safe: concurrent recorders lose no
// span (run under -race).
func TestTracerConcurrentRecord(t *testing.T) {
	tr := NewTracer(256)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			job := fmt.Sprintf("job-%d", g)
			for i := 0; i < 100; i++ {
				tr.Record(float64(i), PhaseRun, job, "w", "")
			}
		}(g)
	}
	wg.Wait()
	if got := tr.Dropped() + uint64(tr.Len()); got != 800 {
		t.Fatalf("retained+dropped = %d, want 800", got)
	}
}

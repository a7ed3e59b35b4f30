// Package telemetry is the live-observability layer: job-lifecycle span
// tracing (this file) and shared structured-logging flags (logging.go).
// The agent's live Prometheus/health endpoints build on it from
// internal/agent; see docs/OBSERVABILITY.md for the full surface.
//
// The tracer is a pure observer. It never schedules events, never reads
// back into the simulation, and its hot path (Record) is allocation-free,
// so attaching one to a run cannot change scheduling decisions, golden
// traces, or the AllocsPerRun hot-path guards.
package telemetry

import (
	"fmt"
	"io"
	"sync"
	"time"
)

// Phase names one step of a job's lifecycle. A healthy job emits
// submit → admit → place → run → (migrate…) → exit; queue appears when
// admission had to park the job, fail when a worker died under it.
type Phase string

const (
	// PhaseSubmit marks the job's arrival at the cluster manager.
	PhaseSubmit Phase = "submit"
	// PhaseQueue marks the job parking in the manager queue because no
	// worker could host it at arrival (it re-enters via admit later).
	PhaseQueue Phase = "queue"
	// PhaseAdmit marks a worker being selected for the job.
	PhaseAdmit Phase = "admit"
	// PhasePlace marks the container launched on the chosen worker.
	PhasePlace Phase = "place"
	// PhaseRun marks the job's container running (fires again after a
	// migration restore).
	PhaseRun Phase = "run"
	// PhaseMigrate marks migration steps: the freeze on the source, the
	// rebalancer's decision that caused it, and the thaw on the
	// destination — distinguished by the span note.
	PhaseMigrate Phase = "migrate"
	// PhaseExit marks the job's workload completing.
	PhaseExit Phase = "exit"
	// PhaseFail marks the job's worker failing under it (the manager
	// reschedules it afterwards, emitting a fresh admit/place).
	PhaseFail Phase = "fail"

	// The chaos/self-healing phases below carry fault-injection and
	// recovery events (internal/faults + the cluster self-healing layer).
	// Worker-level spans leave the job field empty.

	// PhaseCrash marks a worker going down (injected churn or a scripted
	// crash). Job is empty; the worker names the casualty.
	PhaseCrash Phase = "crash"
	// PhaseRepair marks a crashed worker coming back online.
	PhaseRepair Phase = "repair"
	// PhaseKill marks a transient single-container failure: the job's
	// container died but its worker survived.
	PhaseKill Phase = "kill"
	// PhaseDegrade marks a worker's effective capacity changing (the note
	// carries the factor; 1 restores full capacity).
	PhaseDegrade Phase = "degrade"
	// PhaseCheckpoint marks a periodic snapshot of a running job (freeze
	// and local restore, distinguished by the note).
	PhaseCheckpoint Phase = "checkpoint"
	// PhaseShed marks an admission deferred into the queue because
	// surviving capacity fell below the shed watermark (the 429 path).
	PhaseShed Phase = "shed"
	// PhaseCordon marks flap detection cordoning (or later reopening) a
	// repeatedly crashing worker.
	PhaseCordon Phase = "cordon"
	// PhaseGiveUp marks a job abandoned after exhausting its retry
	// budget.
	PhaseGiveUp Phase = "giveup"
)

// Span is one recorded lifecycle step, stamped with both clocks: the
// simulation clock (when the step happened in virtual time) and the wall
// clock (when this process observed it). Sim timestamps are
// deterministic; wall timestamps are not, which is why spans are exported
// on demand and never printed on the determinism-gated scenario output.
type Span struct {
	Job   string `json:"job"`
	Phase Phase  `json:"phase"`
	// SimSec is the simulation clock at the step, in virtual seconds.
	SimSec float64 `json:"sim_sec"`
	// Wall is the observing process's clock, RFC 3339 with nanoseconds.
	Wall string `json:"wall"`
	// Worker is the worker involved, when one is ("" for submit/queue).
	Worker string `json:"worker,omitempty"`
	// Note carries step detail: the container ID for place/run/exit, the
	// freeze/thaw direction and rebalance reason for migrate steps.
	Note string `json:"note,omitempty"`
	// Run labels the experiment run the span came from; stamped at
	// export time so Record stays allocation-free.
	Run string `json:"run,omitempty"`
}

// span is the in-ring representation: the wall clock is kept as raw
// nanoseconds so Record never formats (and never allocates).
type span struct {
	job, worker, note string
	phase             Phase
	simSec            float64
	wallNanos         int64
}

// DefaultTraceCapacity is the ring size NewTracer uses when the caller
// passes a non-positive capacity: 64Ki spans ≈ 5 MB, enough for every
// lifecycle step of the cluster-scale scenario with room to spare.
const DefaultTraceCapacity = 1 << 16

// Tracer is a bounded, concurrency-safe ring of lifecycle spans. Record
// is allocation-free (the ring is preallocated and strings are stored by
// header); when the ring wraps, the oldest spans are dropped and counted.
//
// Spans are appended in observation order. Every step is recorded from
// inside the simulation's single event loop, so a run's spans are in
// non-decreasing sim-time order, and each job's spans are in lifecycle
// order.
type Tracer struct {
	mu    sync.Mutex
	ring  []span
	next  int    // next write slot
	total uint64 // spans ever recorded, including dropped ones
	clock func() time.Time
}

// NewTracer returns a tracer holding at most capacity spans
// (DefaultTraceCapacity when capacity <= 0).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceCapacity
	}
	return &Tracer{ring: make([]span, capacity), clock: time.Now}
}

// Record appends one span, stamped with the caller's simulation clock and
// this process's wall clock. It is safe for concurrent use and never
// allocates; a nil tracer is a no-op, so call sites need no guard.
func (t *Tracer) Record(simSec float64, phase Phase, job, worker, note string) {
	if t == nil {
		return
	}
	wall := t.clock().UnixNano()
	t.mu.Lock()
	t.ring[t.next] = span{
		job:       job,
		worker:    worker,
		note:      note,
		phase:     phase,
		simSec:    simSec,
		wallNanos: wall,
	}
	t.next++
	if t.next == len(t.ring) {
		t.next = 0
	}
	t.total++
	t.mu.Unlock()
}

// Len reports how many spans the ring currently holds.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return int(min(t.total, uint64(len(t.ring))))
}

// Dropped reports how many spans were overwritten because the ring
// wrapped. Zero means Spans/WriteJSONL saw the complete lifecycle log.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.total <= uint64(len(t.ring)) {
		return 0
	}
	return t.total - uint64(len(t.ring))
}

// Spans returns the retained spans oldest-first, labeled with run. It
// allocates (export is not a hot path).
func (t *Tracer) Spans(run string) []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	n := int(min(t.total, uint64(len(t.ring))))
	out := make([]Span, 0, n)
	start := 0
	if t.total > uint64(len(t.ring)) {
		start = t.next // ring wrapped: oldest retained span is at next
	}
	for i := 0; i < n; i++ {
		s := t.ring[(start+i)%len(t.ring)]
		out = append(out, Span{
			Job:    s.job,
			Phase:  s.phase,
			SimSec: s.simSec,
			Wall:   time.Unix(0, s.wallNanos).UTC().Format(time.RFC3339Nano),
			Worker: s.worker,
			Note:   s.note,
			Run:    run,
		})
	}
	return out
}

// WriteJSONL writes the retained spans oldest-first as one JSON object
// per line, each labeled with run. The JSON is hand-rendered with
// explicit escaping so the line format is stable for downstream parsers.
func (t *Tracer) WriteJSONL(w io.Writer, run string) error {
	for _, s := range t.Spans(run) {
		if _, err := fmt.Fprintf(w,
			"{\"job\":%q,\"phase\":%q,\"sim_sec\":%g,\"wall\":%q,\"worker\":%q,\"note\":%q,\"run\":%q}\n",
			s.Job, s.Phase, s.SimSec, s.Wall, s.Worker, s.Note, s.Run); err != nil {
			return err
		}
	}
	return nil
}

package experiment

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"

	"repro/internal/workload"
)

// The event-trace writer in this file produces the golden §5.3 trace that
// golden_test.go pins; no binary writes an event trace.

// round6 snaps a value to the 1e-6 grain used by the event trace.
func round6(v float64) float64 {
	return math.Round(v*1e6) / 1e6
}

// TraceEvent is one line of an experiment event trace: a submission, a
// container start, a soft-limit update, or a completion. The JSONL stream
// is a deterministic function of the run, so a recorded trace doubles as
// a regression golden — any drift in the sim, cluster, or flowcon layers
// changes some event's time or value and fails a byte comparison loudly.
//
// Times and limits are rounded to a microsecond / 1e-6 of a core before
// serialization: full float64 precision is architecture-sensitive (Go may
// fuse multiply-adds into FMA on arm64 and friends, shifting results by
// an ULP), and a golden must not fail between machines that simulate the
// same behaviour. Any real drift is far larger than the rounding grain.
type TraceEvent struct {
	T  float64 `json:"t"`
	Ev string  `json:"ev"` // "submit", "start", "limit", "finish"
	// Job is the experiment-level job label.
	Job string `json:"job"`
	// Model is set on submit events.
	Model string `json:"model,omitempty"`
	// Worker is set on start events.
	Worker string `json:"worker,omitempty"`
	// Limit is set on limit events (never zero: MinLimit clamps above it).
	Limit float64 `json:"limit,omitempty"`
}

// eventRank orders event kinds within one instant the way they happen
// causally: a submission places a container, the container starts, the
// policy reacts with limit updates, completions are observed last.
func eventRank(ev string) int {
	switch ev {
	case "submit":
		return 0
	case "start":
		return 1
	case "limit":
		return 2
	case "finish":
		return 3
	default:
		return 4
	}
}

// EventTrace assembles the run's event list: the schedule's submissions,
// each job's container start and finish, and every soft-limit change the
// policy applied. Events are sorted by (time, kind, job), with limit
// updates for one job kept in recorded order.
func EventTrace(subs []workload.Submission, res *Result) []TraceEvent {
	var events []TraceEvent
	for _, s := range subs {
		events = append(events, TraceEvent{T: round6(s.At), Ev: "submit", Job: s.Name, Model: s.Profile.Key()})
	}
	for _, j := range res.Jobs {
		events = append(events, TraceEvent{T: round6(j.StartedAt), Ev: "start", Job: j.Name, Worker: j.Worker})
		if j.Finished {
			events = append(events, TraceEvent{T: round6(j.FinishedAt), Ev: "finish", Job: j.Name})
		}
		if limits := res.Collector.LimitSeries(j.Name); limits != nil {
			for _, p := range limits.Points() {
				events = append(events, TraceEvent{T: round6(p.T), Ev: "limit", Job: j.Name, Limit: round6(p.V)})
			}
		}
	}
	sort.SliceStable(events, func(i, j int) bool {
		if events[i].T != events[j].T {
			return events[i].T < events[j].T
		}
		if r1, r2 := eventRank(events[i].Ev), eventRank(events[j].Ev); r1 != r2 {
			return r1 < r2
		}
		return events[i].Job < events[j].Job
	})
	return events
}

// WriteEventTrace writes the run's event trace as JSONL.
func WriteEventTrace(w io.Writer, subs []workload.Submission, res *Result) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i, e := range EventTrace(subs, res) {
		if err := enc.Encode(e); err != nil {
			return fmt.Errorf("experiment: encoding trace event %d: %w", i, err)
		}
	}
	return bw.Flush()
}

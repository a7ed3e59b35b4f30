package workload

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"reflect"
	"strings"

	"repro/internal/dlmodel"
)

// The JSONL trace format: one submission per line, in schedule order,
// with a fixed field order and Go's canonical (shortest round-trip)
// float encoding:
//
//	{"job":"Job-1","model":"VAE (Pytorch)","at":12.375}
//
// RecordStream(ReplayStream(trace)) reproduces a recorded trace byte for
// byte, so traces can be checked in as golden files, diffed, and replayed
// into the simulator without drift. Hand-written traces are accepted
// anywhere recorded ones are; they become canonical after one round trip.
type traceLine struct {
	Job   string  `json:"job"`
	Model string  `json:"model"`
	At    float64 `json:"at"`
}

// RecordStream writes a stream as a JSONL trace, one submission at a
// time, and returns how many submissions it wrote. Schedules must be in
// arrival order (non-decreasing At), with unique job names and catalog
// models — the invariants every consumer of a trace relies on. Output
// reaches w incrementally: a mid-stream rejection (or stream error)
// leaves a truncated prefix behind, so callers recording to a file should
// remove it on error — the CLI does.
func RecordStream(w io.Writer, s ArrivalStream) (int, error) {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	seen := make(map[string]bool)
	lastAt := 0.0
	n := 0
	for sub, ok := s.Next(); ok; sub, ok = s.Next() {
		if err := validateSubmission(n, sub); err != nil {
			return n, fmt.Errorf("workload: %w", err)
		}
		if seen[sub.Name] {
			return n, fmt.Errorf("workload: duplicate job %q in schedule", sub.Name)
		}
		seen[sub.Name] = true
		if sub.At < lastAt {
			return n, fmt.Errorf("workload: submission %d (%s) arrives at %g, before its predecessor at %g — schedules must be in arrival order",
				n+1, sub.Name, sub.At, lastAt)
		}
		lastAt = sub.At
		// A trace is only replayable if the model key resolves to the
		// identical catalog profile — reject at record time instead of
		// handing back a file Replay will refuse (or silently reinterpret).
		if catalog, ok := dlmodel.Find(sub.Profile.Key()); !ok || !reflect.DeepEqual(catalog, sub.Profile) {
			return n, fmt.Errorf("workload: submission %d (%s) uses model %q, which is not a catalog profile — traces can only carry catalog models",
				n+1, sub.Name, sub.Profile.Key())
		}
		// Encode appends the newline that terminates the JSONL line.
		if err := enc.Encode(traceLine{Job: sub.Name, Model: sub.Profile.Key(), At: sub.At}); err != nil {
			return n, fmt.Errorf("workload: recording line %d: %w", n+1, err)
		}
		n++
	}
	if err := s.Err(); err != nil {
		return n, err
	}
	return n, bw.Flush()
}

// Replay parses a JSONL trace back into a schedule. Every model key must
// resolve in the dlmodel catalog; job names must be unique and non-empty;
// arrival times must be finite, non-negative, and non-decreasing — a
// trace that is not in arrival order would silently break the
// "Job-1..Job-n in arrival order" invariant reports rely on, so it is
// rejected with the offending line number. Blank lines are allowed (and
// dropped — they are not part of the canonical form).
func Replay(r io.Reader) ([]Submission, error) {
	return Collect(ReplayStream(r))
}

// ReplayStream parses a JSONL trace lazily, one submission per pull, with
// exactly Replay's validation. Memory is O(distinct job names) — the
// duplicate check — rather than O(trace length), so megacluster traces
// replay without materializing. After Next returns ok=false, Err reports
// what ended the stream: nil for a clean end, otherwise the line-numbered
// parse or validation error.
func ReplayStream(r io.Reader) ArrivalStream {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	return &replayStream{sc: sc, seen: make(map[string]bool)}
}

type replayStream struct {
	sc     *bufio.Scanner
	seen   map[string]bool
	lineNo int
	lastAt float64
	n      int
	err    error
	done   bool
}

func (s *replayStream) fail(err error) (Submission, bool) {
	s.err = err
	s.done = true
	return Submission{}, false
}

func (s *replayStream) Next() (Submission, bool) {
	if s.done {
		return Submission{}, false
	}
	for s.sc.Scan() {
		s.lineNo++
		line := strings.TrimSpace(s.sc.Text())
		if line == "" {
			continue
		}
		var tl traceLine
		dec := json.NewDecoder(strings.NewReader(line))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&tl); err != nil {
			return s.fail(fmt.Errorf("workload: trace line %d: %w", s.lineNo, err))
		}
		if dec.More() {
			return s.fail(fmt.Errorf("workload: trace line %d: trailing data after record", s.lineNo))
		}
		profile, ok := dlmodel.Find(tl.Model)
		if !ok {
			return s.fail(fmt.Errorf("workload: trace line %d: unknown model %q", s.lineNo, tl.Model))
		}
		if s.seen[tl.Job] {
			return s.fail(fmt.Errorf("workload: trace line %d: duplicate job %q", s.lineNo, tl.Job))
		}
		sub := Submission{Name: tl.Job, Profile: profile, At: tl.At}
		if err := validateSubmission(s.n, sub); err != nil {
			return s.fail(fmt.Errorf("workload: trace line %d: %w", s.lineNo, err))
		}
		if sub.At < s.lastAt {
			return s.fail(fmt.Errorf("workload: trace line %d: job %q arrives at %g, before the previous submission at %g — traces must be in arrival order",
				s.lineNo, sub.Name, sub.At, s.lastAt))
		}
		s.seen[tl.Job] = true
		s.lastAt = sub.At
		s.n++
		return sub, true
	}
	s.done = true
	if err := s.sc.Err(); err != nil {
		s.err = fmt.Errorf("workload: reading trace: %w", err)
	} else if s.n == 0 {
		s.err = fmt.Errorf("workload: trace has no submissions")
	}
	return Submission{}, false
}

func (s *replayStream) Err() error { return s.err }

// validateSubmission rejects schedules the simulator would choke on.
func validateSubmission(i int, s Submission) error {
	if s.Name == "" {
		return fmt.Errorf("submission %d has no job name", i+1)
	}
	if s.At < 0 || math.IsNaN(s.At) || math.IsInf(s.At, 0) {
		return fmt.Errorf("submission %d (%s) arrival %g is not a finite non-negative time", i+1, s.Name, s.At)
	}
	return nil
}

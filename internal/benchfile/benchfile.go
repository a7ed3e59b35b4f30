// Package benchfile defines the BENCH_sim.json perf-trajectory document
// and the schema-tolerant loading shared by cmd/benchjson (the recorder),
// cmd/benchcompare (the regression gate) and cmd/loadtest. Keeping the
// schema in one place means a future version bump or migration-rule
// change cannot drift between the commands.
package benchfile

import (
	"encoding/json"
	"fmt"
	"os"
)

// SchemaVersion is the current document schema: an append-only history of
// per-commit entries.
const SchemaVersion = 2

// Benchmark is one parsed `go test -bench` result line.
type Benchmark struct {
	// Name is the benchmark id without the GOMAXPROCS suffix,
	// e.g. "Settle/256".
	Name string `json:"name"`
	// Package is the Go package the benchmark lives in.
	Package string `json:"package"`
	// Iterations is b.N for the recorded run.
	Iterations int64 `json:"iterations"`
	// NsPerOp is the headline nanoseconds per operation.
	NsPerOp float64 `json:"ns_per_op"`
	// Metrics carries any custom b.ReportMetric values by unit.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// LoadtestResult is one /v1 API load-test data point: concurrent
// submitters driving a live flowcon-worker over loopback HTTP
// (cmd/loadtest, CI's loadtest-smoke job). Latencies are wall-clock
// milliseconds per submit round trip. The field is additive and
// omitempty, so the document schema stays at 2 and entries recorded
// before the load test remain valid.
type LoadtestResult struct {
	// Submitters is the number of concurrent submitter goroutines.
	Submitters int `json:"submitters"`
	// Jobs is the total number of submissions issued.
	Jobs int `json:"jobs"`
	// Errors counts failed submissions (0 is the smoke gate).
	Errors int `json:"errors"`
	// P50/P95/P99/Max are submit-latency percentiles in milliseconds —
	// the submit phase of Phases, duplicated here so entries stay
	// comparable with pre-phase-breakdown history.
	P50Ms float64 `json:"p50_ms"`
	P95Ms float64 `json:"p95_ms"`
	P99Ms float64 `json:"p99_ms"`
	MaxMs float64 `json:"max_ms"`
	// WallSec is the wall-clock duration of the whole run.
	WallSec float64 `json:"wall_sec"`
	// Phases breaks the round trip into connect / submit / status-poll
	// latency distributions. Additive and omitempty: entries recorded
	// before the breakdown stay valid.
	Phases *LoadtestPhases `json:"phases,omitempty"`
}

// LoadtestPhases is the per-phase latency breakdown of a load-test run:
// connect (one /v1/ping per submitter before the load), submit (POST
// /v1/jobs round trips), and status-poll (GET /v1/jobs/{name} after each
// accepted submission).
type LoadtestPhases struct {
	Connect    LoadtestPhase `json:"connect"`
	Submit     LoadtestPhase `json:"submit"`
	StatusPoll LoadtestPhase `json:"status_poll"`
}

// LoadtestPhase is one phase's wall-clock latency distribution in
// milliseconds.
type LoadtestPhase struct {
	Count int     `json:"count"`
	P50Ms float64 `json:"p50_ms"`
	P95Ms float64 `json:"p95_ms"`
	P99Ms float64 `json:"p99_ms"`
	MaxMs float64 `json:"max_ms"`
}

// Entry is one per-commit data point of the trajectory.
type Entry struct {
	// Commit is the abbreviated git revision the entry was recorded at
	// ("unknown" outside a git checkout, "pre-history" for a migrated
	// schema-1 document).
	Commit      string      `json:"commit"`
	GeneratedAt string      `json:"generated_at"`
	GoVersion   string      `json:"go_version"`
	GOOS        string      `json:"goos"`
	GOARCH      string      `json:"goarch"`
	GOMAXPROCS  int         `json:"gomaxprocs,omitempty"`
	BenchTime   string      `json:"benchtime"`
	Benchmarks  []Benchmark `json:"benchmarks"`
	// Scenarios holds the end-to-end scenario rows that older entries
	// carry, kept verbatim so rewriting the history never alters them.
	// New entries write none: end-to-end numbers come from ./bench.
	Scenarios json.RawMessage `json:"scenarios,omitempty"`
	// Loadtest is the /v1 submit-latency data point recorded by
	// cmd/loadtest against this commit, when one was taken.
	Loadtest *LoadtestResult `json:"loadtest,omitempty"`
}

// Report is the BENCH_sim.json history document.
type Report struct {
	SchemaVersion int     `json:"schema_version"`
	Entries       []Entry `json:"entries"`
}

// Parse decodes a history document. Any other schema_version — the
// pre-history schema 1 included — is rejected.
func Parse(raw []byte) (Report, error) {
	var rep Report
	if err := json.Unmarshal(raw, &rep); err != nil {
		return Report{}, err
	}
	if rep.SchemaVersion != SchemaVersion {
		return Report{}, fmt.Errorf("unknown schema_version %d", rep.SchemaVersion)
	}
	return rep, nil
}

// Load reads and parses the document at path.
func Load(path string) (Report, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return Report{}, err
	}
	rep, err := Parse(raw)
	if err != nil {
		return Report{}, fmt.Errorf("%s: %w", path, err)
	}
	return rep, nil
}

// Latest returns the report's most recent entry.
func (r Report) Latest() (Entry, error) {
	if len(r.Entries) == 0 {
		return Entry{}, fmt.Errorf("empty benchmark history")
	}
	return r.Entries[len(r.Entries)-1], nil
}

// Write marshals the document to path with a trailing newline.
func (r Report) Write(path string) error {
	buf, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

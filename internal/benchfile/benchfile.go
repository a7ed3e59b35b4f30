// Package benchfile defines the BENCH_sim.json perf-trajectory document
// and the schema-tolerant loading shared by cmd/benchjson (the recorder)
// and cmd/benchcompare (the regression gate). Keeping the schema in one
// place means a future version bump or migration-rule change cannot drift
// between the two commands.
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

// ScenarioResult is one cluster-scale run's recorded outcome.
type ScenarioResult struct {
	Name    string `json:"name"`
	Seed    int64  `json:"seed"`
	Workers int    `json:"workers"`
	// SimShards is the intra-run lane parallelism the run used (1 =
	// serial engine).
	SimShards int `json:"sim_shards"`
	// SimBatches counts the parallel lane batches the run executed (0 for
	// the serial engine).
	SimBatches  int     `json:"sim_batches,omitempty"`
	Jobs        int     `json:"jobs"`
	MakespanSec float64 `json:"makespan_sec"`
	Completed   bool    `json:"completed"`
	// WallSec is the host wall-clock cost of simulating the scenario —
	// the quantity the perf trajectory tracks.
	WallSec float64 `json:"wall_sec"`
	// SimulatedPerWallSec is virtual seconds simulated per wall second.
	SimulatedPerWallSec float64 `json:"simulated_per_wall_sec"`
	// JobsPerSimSec is the sustained admission throughput in simulated
	// time (jobs / makespan_sec) — the megacluster family's headline
	// "max sustainable jobs/sec" number. Zero in pre-streaming entries.
	JobsPerSimSec float64 `json:"jobs_per_sim_sec,omitempty"`
	// ArrivalsStreamed records that the run admitted its schedule through
	// the lazy arrival stream instead of a materialized slice, so
	// workload-layer memory was O(1) in job count.
	ArrivalsStreamed bool `json:"arrivals_streamed,omitempty"`
	// TraceLevel is the metric-retention tier the run used ("summary" or
	// "dense"); empty in entries recorded before tiered collection.
	TraceLevel string `json:"trace_level,omitempty"`
	// CollectorBytes is the collector's retained observability memory at
	// run end (metrics.Collector.MemoryBytes). Comparing the summary and
	// dense runs of one entry verifies the O(jobs) memory model; see
	// docs/BENCH_SCHEMA.md.
	CollectorBytes int64 `json:"collector_bytes,omitempty"`
	// SketchErrP50/P95/P99 record sketch-vs-dense quantile accuracy: the
	// maximum relative error of the streaming-sketch estimate against the
	// exact quantile of the dense CPU series, across all jobs of the run.
	// Only the dense run can measure this (it holds both representations),
	// so the fields are zero elsewhere. Must stay within
	// metrics.SketchAccuracy.
	SketchErrP50 float64 `json:"sketch_err_p50,omitempty"`
	SketchErrP95 float64 `json:"sketch_err_p95,omitempty"`
	SketchErrP99 float64 `json:"sketch_err_p99,omitempty"`
	// Epochs through MergeSec are the sharded executor's phase profile
	// (sim.ShardProfile), recorded only for sharded runs (omitted when
	// SimShards is 1): parallel epochs executed, events executed inside
	// batches vs stepped serially, serial-degrade episodes, and the
	// coordinator wall-clock spent blocked on the epoch barrier and in
	// the post-batch merge. The wall-clock pair is where the "multi-core
	// sharded scaling" roadmap work measures its starting overhead; the
	// event counters are deterministic for a scenario/seed/shard triple.
	Epochs         int64   `json:"epochs,omitempty"`
	BatchEvents    int64   `json:"batch_events,omitempty"`
	SerialEvents   int64   `json:"serial_events,omitempty"`
	SerialEpisodes int64   `json:"serial_episodes,omitempty"`
	BarrierWaitSec float64 `json:"barrier_wait_sec,omitempty"`
	MergeSec       float64 `json:"merge_sec,omitempty"`
	// AvailabilityFrac through Cordons are the chaos-engine availability
	// ledger (cluster.Availability), recorded only for fault-injected runs
	// (the chaos-day family). All additive and omitempty, so the schema
	// stays at 2 and healthy rows are unchanged. MTTR quantiles are NaN-
	// free: they are omitted (zero) when no job ever lost a container.
	AvailabilityFrac    float64 `json:"availability_frac,omitempty"`
	WorkerDownSec       float64 `json:"worker_down_sec,omitempty"`
	Crashes             int     `json:"crashes,omitempty"`
	Kills               int     `json:"kills,omitempty"`
	Degradations        int     `json:"degradations,omitempty"`
	Checkpoints         int     `json:"checkpoints,omitempty"`
	RestartsFromCkpt    int     `json:"restarts_from_checkpoint,omitempty"`
	RestartsFromScratch int     `json:"restarts_from_scratch,omitempty"`
	WastedWorkSec       float64 `json:"wasted_work_sec,omitempty"`
	MTTRp50Sec          float64 `json:"mttr_p50_sec,omitempty"`
	MTTRp95Sec          float64 `json:"mttr_p95_sec,omitempty"`
	JobsAbandoned       int     `json:"jobs_abandoned,omitempty"`
	AdmissionsShed      int     `json:"admissions_shed,omitempty"`
	Cordons             int     `json:"cordons,omitempty"`
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
	Commit      string           `json:"commit"`
	GeneratedAt string           `json:"generated_at"`
	GoVersion   string           `json:"go_version"`
	GOOS        string           `json:"goos"`
	GOARCH      string           `json:"goarch"`
	GOMAXPROCS  int              `json:"gomaxprocs,omitempty"`
	BenchTime   string           `json:"benchtime"`
	Benchmarks  []Benchmark      `json:"benchmarks"`
	Scenarios   []ScenarioResult `json:"scenarios"`
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

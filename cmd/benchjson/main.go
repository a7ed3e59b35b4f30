// Command benchjson records the repo's perf trajectory: it runs the
// simulation hot-path microbenchmarks (event cancellation, daemon
// settle/reallocate and plan apply, Algorithm 1, the migration ladder,
// sharded lanes, sketch insert and the metrics sampler pass) across the
// 16/64/256 containers-per-node ladder and the live node's launch/lookup
// pair at 1/1000/4000 running, runs the cluster-scale scenario end to end
// — serial engine, sharded executor, and a serial dense-tier run — and
// appends the results as one per-commit entry to BENCH_sim.json.
//
// Usage:
//
//	benchjson [-out BENCH_sim.json] [-benchtime 1s] [-parallel N] [-shards N] [-mega smoke|full|off]
//
// -mega appends a megacluster run to the entry: "smoke" (the default)
// runs megacluster-smoke, the CI-sized 1000-worker slice (~50k jobs);
// "full" runs the complete ~1M-job megacluster day through the streaming
// admission path; "off" skips the family. The recorded row carries
// jobs_per_sim_sec (sustained admission throughput) and
// arrivals_streamed alongside the usual wall/memory columns.
//
// Each scenario run records the metric tier it used (trace_level) and the
// collector's retained observability memory (collector_bytes); comparing
// the summary and dense serial runs of one entry shows the constant-memory
// tier's savings at cluster scale. The dense run also measures
// sketch-vs-dense accuracy (sketch_err_p50/p95/p99): it holds both the raw
// CPU series and the streaming sketches, so the exact quantiles are
// available to diff against. The entry layout is documented in
// docs/BENCH_SCHEMA.md.
//
// BENCH_sim.json is a history document (internal/benchfile, schema 2):
// every invocation appends an entry stamped with the current git revision,
// preserving the prior points, so the file records the cross-PR trajectory
// machine-readably. The microbenchmarks go through
// `go test -bench`, so the recorded numbers are exactly what a developer
// sees locally; the scenarios run in-process. CI runs this with
// -benchtime=1x as a smoke check and uploads the artifact, and
// `make bench-compare` diffs a fresh run against the committed history to
// gate regressions.
package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/benchfile"
	"repro/internal/experiment"
	"repro/internal/metrics"
)

// benchPackages are the packages holding the hot-path microbenchmarks,
// including the daemon's plan ladder (PlanApply in simdocker: half the
// pool re-limited at one instant, one fill), the migration ladder
// (checkpoint/restore in simdocker, full manager-mediated migrate and
// rebalancer scans in migrate), the observer (sketch insert in stats,
// the sampler pass and the whole collector tick over 16/256 workers in
// metrics) and the live submit path (launch and
// status lookup on a livedock node).
var benchPackages = []string{
	"./internal/sim",
	"./internal/simdocker",
	"./internal/flowcon",
	"./internal/migrate",
	"./internal/stats",
	"./internal/metrics",
	"./internal/livedock",
}

// scenarioName is the registered cluster-scale stress scenario.
const scenarioName = "cluster-scale"

// benchLine matches `BenchmarkName-8   123   456.7 ns/op  [value unit]...`.
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+(\S+)\s+ns/op(.*)$`)

func main() {
	const usage = "usage: benchjson [-out file] [-benchtime 1s] [-parallel N] [-shards N] [-mega smoke|full|off]"
	out := "BENCH_sim.json"
	benchtime := "1s"
	parallel := runtime.GOMAXPROCS(0)
	shards := runtime.GOMAXPROCS(0)
	mega := "smoke"
	args := os.Args[1:]
	for i := 0; i < len(args); i++ {
		if i+1 >= len(args) {
			fatalf("flag %s needs a value (%s)", args[i], usage)
		}
		switch args[i] {
		case "-out":
			i++
			out = args[i]
		case "-benchtime":
			i++
			benchtime = args[i]
		case "-parallel":
			i++
			n, err := strconv.Atoi(args[i])
			if err != nil || n < 1 {
				fatalf("bad -parallel %q", args[i])
			}
			parallel = n
		case "-shards":
			i++
			n, err := strconv.Atoi(args[i])
			if err != nil || n < 1 {
				fatalf("bad -shards %q", args[i])
			}
			shards = n
		case "-mega":
			i++
			mega = args[i]
			switch mega {
			case "smoke", "full", "off":
			default:
				fatalf("bad -mega %q (want smoke, full or off)", mega)
			}
		default:
			fatalf("unknown flag %q (%s)", args[i], usage)
		}
	}
	experiment.SetDefaultParallelism(parallel)

	entry := benchfile.Entry{
		Commit:      gitCommit(),
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		BenchTime:   benchtime,
	}

	var err error
	entry.Benchmarks, err = runBenchmarks(benchtime)
	if err != nil {
		fatalf("microbenchmarks: %v", err)
	}
	// The scenario runs in three configurations: the serial summary-tier
	// engine is the baseline the trajectory has always tracked; the
	// sharded run records what the epoch-parallel executor buys on this
	// box (bounded by GOMAXPROCS); and a serial dense-tier run anchors
	// the memory comparison (collector_bytes summary vs dense) and
	// measures sketch-vs-dense quantile accuracy.
	for _, simShards := range []int{1, shards} {
		sr, err := runScenario(scenarioName, simShards, metrics.TierSummary)
		if err != nil {
			fatalf("scenario (shards=%d): %v", simShards, err)
		}
		entry.Scenarios = append(entry.Scenarios, sr)
		if simShards == shards && shards == 1 {
			break // one core: the second run would duplicate the first
		}
	}
	dense, err := runScenario(scenarioName, 1, metrics.TierDense)
	if err != nil {
		fatalf("scenario (dense): %v", err)
	}
	entry.Scenarios = append(entry.Scenarios, dense)
	// The chaos row tracks the self-healing layer's trajectory: wall cost
	// of the fault-injected run plus the availability ledger (downtime,
	// restart provenance, wasted work, MTTR) for the chaos-day storm.
	chaos, err := runScenario("chaos-day", 1, metrics.TierSummary)
	if err != nil {
		fatalf("scenario (chaos-day): %v", err)
	}
	entry.Scenarios = append(entry.Scenarios, chaos)
	// The megacluster run exercises lazy arrival generation at the
	// ROADMAP's thousand-worker scale; its row is where the trajectory
	// tracks sustained jobs/sec and the O(1)-workload memory claim. It
	// runs sharded so the entry also records the epoch profile at that
	// scale (on a one-core box pass -shards > 1 to exercise the epochs).
	if mega != "off" {
		name := "megacluster-smoke"
		if mega == "full" {
			name = "megacluster"
		}
		sr, err := runScenario(name, shards, metrics.TierSummary)
		if err != nil {
			fatalf("scenario (%s): %v", name, err)
		}
		entry.Scenarios = append(entry.Scenarios, sr)
	}

	rep, err := benchfile.Load(out)
	if err != nil {
		// Missing or unreadable history starts fresh; a malformed existing
		// document is replaced rather than silently discarded mid-file.
		rep = benchfile.Report{SchemaVersion: benchfile.SchemaVersion}
	}
	rep.Entries = append(rep.Entries, entry)
	if err := rep.Write(out); err != nil {
		fatalf("write: %v", err)
	}
	last := entry.Scenarios[len(entry.Scenarios)-1]
	fmt.Printf("appended entry %s to %s: %d benchmarks, %d scenario runs (last: shards=%d, %.1fs wall), %d entries total\n",
		entry.Commit, out, len(entry.Benchmarks), len(entry.Scenarios), last.SimShards, last.WallSec, len(rep.Entries))
}

// gitCommit returns the abbreviated HEAD revision, or "unknown".
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// runBenchmarks shells out to `go test -bench` and parses the result
// lines, tracking the current package from the interleaved `pkg:` header.
func runBenchmarks(benchtime string) ([]benchfile.Benchmark, error) {
	cmd := exec.Command("go", append([]string{
		"test", "-run", "^$", "-bench", ".", "-benchtime", benchtime,
	}, benchPackages...)...)
	cmd.Stderr = os.Stderr
	raw, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go test -bench: %w", err)
	}
	var benches []benchfile.Benchmark
	pkg := ""
	for _, line := range strings.Split(string(raw), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "pkg: "); ok {
			pkg = rest
			continue
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		iters, err := strconv.ParseInt(m[2], 10, 64)
		if err != nil {
			continue
		}
		ns, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			continue
		}
		b := benchfile.Benchmark{
			Name:       strings.TrimPrefix(m[1], "Benchmark"),
			Package:    pkg,
			Iterations: iters,
			NsPerOp:    ns,
		}
		// Custom metrics follow as `value unit` pairs.
		fields := strings.Fields(m[4])
		for i := 0; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			if b.Metrics == nil {
				b.Metrics = make(map[string]float64)
			}
			b.Metrics[fields[i+1]] = v
		}
		benches = append(benches, b)
	}
	if len(benches) == 0 {
		return nil, fmt.Errorf("no benchmark lines parsed from go test output")
	}
	return benches, nil
}

// runScenario executes one registered scenario once (seed 1) at the
// given shard count and metric tier, recording the simulated outcome, its
// wall-clock cost, and the collector's retained memory. A dense-tier run
// additionally measures sketch-vs-exact quantile accuracy across its jobs.
func runScenario(name string, simShards int, tier metrics.Tier) (benchfile.ScenarioResult, error) {
	scen, ok := experiment.ScenarioByName(name)
	if !ok {
		return benchfile.ScenarioResult{}, fmt.Errorf("scenario %q not registered", name)
	}
	scen.SimShards = simShards
	scen.TraceLevel = tier
	const seed = 1
	start := time.Now()
	outs, err := experiment.RunScenarios(context.Background(),
		[]experiment.Scenario{scen}, []int64{seed}, experiment.SweepOptions{})
	if err != nil {
		return benchfile.ScenarioResult{}, err
	}
	wall := time.Since(start).Seconds()
	rep := outs[0].Reports[0]
	if rep.Err != nil {
		return benchfile.ScenarioResult{}, rep.Err
	}
	res := rep.Result
	sr := benchfile.ScenarioResult{
		Name:             name,
		Seed:             seed,
		Workers:          scen.Workers,
		SimShards:        res.SimShards,
		SimBatches:       res.SimBatches,
		Jobs:             res.Submitted,
		MakespanSec:      res.Makespan,
		Completed:        res.Completed,
		WallSec:          wall,
		TraceLevel:       tier.String(),
		CollectorBytes:   int64(res.Collector.MemoryBytes()),
		ArrivalsStreamed: true, // every scenario admits from a stream
	}
	if wall > 0 {
		sr.SimulatedPerWallSec = res.Makespan / wall
	}
	if res.Makespan > 0 {
		sr.JobsPerSimSec = float64(res.Submitted) / res.Makespan
	}
	// Sharded runs carry the executor's phase profile so the epoch-
	// barrier work in the sharding roadmap item starts from measured
	// numbers (serial runs have no profile).
	if p := res.ShardProfile; p != nil {
		sr.Epochs = p.Epochs
		sr.BatchEvents = p.BatchEvents
		sr.SerialEvents = p.SerialEvents
		sr.SerialEpisodes = p.SerialEpisodes
		sr.BarrierWaitSec = p.BarrierWaitSec
		sr.MergeSec = p.MergeSec
	}
	if tier == metrics.TierDense {
		sr.SketchErrP50, sr.SketchErrP95, sr.SketchErrP99 = sketchError(res.Collector)
	}
	// Fault-injected runs carry the availability ledger (omitted for
	// healthy rows — Result.Availability is attached only when the run saw
	// chaos activity).
	if a := res.Availability; a != nil {
		sr.AvailabilityFrac = a.Frac()
		sr.WorkerDownSec = a.WorkerDownSec
		sr.Crashes = a.Crashes
		sr.Kills = a.Kills
		sr.Degradations = a.Degradations
		sr.Checkpoints = a.Checkpoints
		sr.RestartsFromCkpt = a.RestartsFromCheckpoint
		sr.RestartsFromScratch = a.RestartsFromScratch
		sr.WastedWorkSec = a.WastedWorkSec
		if p := a.MTTRQuantile(0.50); !math.IsNaN(p) {
			sr.MTTRp50Sec = p
		}
		if p := a.MTTRQuantile(0.95); !math.IsNaN(p) {
			sr.MTTRp95Sec = p
		}
		sr.JobsAbandoned = res.Abandoned
		sr.AdmissionsShed = a.Shed
		sr.Cordons = a.Cordons
	}
	return sr, nil
}

// sketchError measures the summary tier's accuracy claim against ground
// truth: for every job with a meaningfully long dense CPU series it
// compares the streaming sketch's p50/p95/p99 to the exact sorted-sample
// quantile and returns the worst relative error per quantile. The
// collector maintains summaries in both tiers, so a dense run holds both
// representations of the same samples.
func sketchError(col *metrics.Collector) (p50, p95, p99 float64) {
	worst := [3]float64{}
	qs := [3]float64{0.5, 0.95, 0.99}
	for _, job := range col.Jobs() {
		series := col.CPUSeries(job.Name)
		sum := col.CPUSummary(job.Name)
		if series == nil || sum == nil || series.Len() < 20 {
			continue
		}
		vals := make([]float64, 0, series.Len())
		for _, p := range series.Points() {
			vals = append(vals, p.V)
		}
		sort.Float64s(vals)
		for i, q := range qs {
			exact := vals[int(q*float64(len(vals)-1))]
			est := sum.Quantile(q)
			rel := math.Abs(est-exact) / math.Max(math.Abs(exact), 1e-9)
			if rel > worst[i] {
				worst[i] = rel
			}
		}
	}
	return worst[0], worst[1], worst[2]
}

func fatalf(format string, args ...any) {
	fmt.Fprintln(os.Stderr, "benchjson: "+fmt.Sprintf(format, args...))
	os.Exit(1)
}

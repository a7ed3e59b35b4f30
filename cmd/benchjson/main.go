// Command benchjson records the repo's microbenchmark trajectory: it runs
// the simulation hot-path microbenchmarks (event cancellation, daemon
// settle/reallocate and plan apply, Algorithm 1, the migration ladder,
// sketch insert and the dense metrics tier's rate log) across the
// 16/64/256 containers-per-node ladder, the placement scan over 256 and
// 1000 workers, and the live node's launch/lookup pair at 1/1000/4000
// running, and appends the results as one per-commit entry to
// BENCH_sim.json.
//
// Usage:
//
//	benchjson [-out BENCH_sim.json] [-benchtime 1s]
//
// End-to-end numbers (throughput, latency, memory of whole scenario runs)
// are not recorded here: `go run ./bench` owns them (see bench/README.md).
//
// BENCH_sim.json is a history document (internal/benchfile, schema 2,
// layout in docs/BENCH_SCHEMA.md): every invocation appends an entry
// stamped with the current git revision, preserving the prior points, so
// the file records the cross-PR trajectory machine-readably. The
// microbenchmarks go through `go test -bench`, so the recorded numbers are
// exactly what a developer sees locally. CI runs this with -benchtime=1x
// as a smoke check and uploads the artifact, and `make bench-compare-base`
// diffs the merge base against the working tree on one machine to gate
// regressions.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/benchfile"
)

// benchPackages are the packages holding the hot-path microbenchmarks,
// including the daemon's plan ladder (PlanApply in simdocker: half the
// pool re-limited at one instant, one fill), the migration ladder
// (checkpoint/restore in simdocker, full manager-mediated migrate and
// rebalancer scans in migrate), the observer (sketch insert in stats,
// the dense tier's rate log in metrics), the manager's placement scan (LeastLoaded and BinPackMemory
// over loaded workers in cluster) and the live submit path (launch and
// status lookup on a livedock node).
var benchPackages = []string{
	"./internal/sim",
	"./internal/simdocker",
	"./internal/cluster",
	"./internal/flowcon",
	"./internal/migrate",
	"./internal/stats",
	"./internal/metrics",
	"./internal/livedock",
}

// benchLine matches `BenchmarkName-8   123   456.7 ns/op  [value unit]...`.
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+(\S+)\s+ns/op(.*)$`)

func main() {
	out := flag.String("out", "BENCH_sim.json", "history document to append to")
	benchtime := flag.String("benchtime", "1s", "per-benchmark budget passed to go test")
	flag.Parse()

	entry := benchfile.Entry{
		Commit:      gitCommit(),
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		BenchTime:   *benchtime,
	}
	var err error
	entry.Benchmarks, err = runBenchmarks(*benchtime)
	if err != nil {
		fatalf("microbenchmarks: %v", err)
	}

	rep, err := benchfile.Load(*out)
	if err != nil {
		// Missing or unreadable history starts fresh; a malformed existing
		// document is replaced rather than silently discarded mid-file.
		rep = benchfile.Report{SchemaVersion: benchfile.SchemaVersion}
	}
	rep.Entries = append(rep.Entries, entry)
	if err := rep.Write(*out); err != nil {
		fatalf("write: %v", err)
	}
	fmt.Printf("appended entry %s to %s: %d benchmarks, %d entries total\n",
		entry.Commit, *out, len(entry.Benchmarks), len(rep.Entries))
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

func fatalf(format string, args ...any) {
	fmt.Fprintln(os.Stderr, "benchjson: "+fmt.Sprintf(format, args...))
	os.Exit(1)
}

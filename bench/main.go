// Command bench is the repository's benchmark: five workloads, the
// end-to-end metrics a user of the simulator or of the live /v1 worker
// sees, and a per-layer attribution measured from outside the layers.
// README.md in this directory documents metrics, workloads and output.
//
//	go run ./bench [-seed 1] [-workload a,b] [-seconds 15] [-trace] [-out file]
//	go run ./bench -repeat-check
//	go run ./bench -quick
//
// The benchmark driver's form names one workload and gets a one-line JSON
// result as the last line of standard output:
//
//	go run ./bench --workload cluster-scale --seed 3 --seconds 15 --trace 0
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// options are the command line.
type options struct {
	seed        int64
	workloads   []benchWorkload
	seconds     float64
	trace       bool
	quick       bool
	repeatCheck bool
	out         string
	// scratch is where transient files (the CPU profile) go. The default
	// is inside the checkout the benchmark runs from and is named in
	// .gitignore; tests point it at a temporary directory.
	scratch string
}

func main() {
	if raw := os.Getenv(childEnv); raw != "" {
		childMain(raw)
	}
	opts, err := parseArgs(os.Args[1:], os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	os.Exit(run(opts, os.Stdout))
}

// parseArgs reads the command line; flag's own usage text goes to usage.
func parseArgs(args []string, usage io.Writer) (options, error) {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(usage)
	seed := fs.Int64("seed", 1, "seed for every workload generator")
	names := fs.String("workload", "", "comma-separated workloads to run (default: all)")
	seconds := fs.Float64("seconds", 15, "measure each workload for at least this long (and at least 5 repetitions)")
	trace := fs.Bool("trace", false, "also run the traced pass and report the per-layer metrics")
	quick := fs.Bool("quick", false, "one scaled-down repetition per workload: exercises the plumbing, measures nothing")
	repeat := fs.Bool("repeat-check", false, "run the end-to-end pass twice and compare the medians against the bounds")
	out := fs.String("out", "", "also write the full report as JSON to this file")
	if err := fs.Parse(boolValueArgs(args, "trace")); err != nil {
		return options{}, err
	}
	if fs.NArg() > 0 {
		return options{}, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	opts := options{seed: *seed, seconds: *seconds, trace: *trace, quick: *quick, repeatCheck: *repeat, out: *out,
		scratch: ".bench_build"}
	if *names == "" {
		opts.workloads = workloads()
	}
	for _, name := range strings.Split(*names, ",") {
		if name = strings.TrimSpace(name); name == "" {
			continue
		}
		w, ok := workloadByName(name)
		if !ok {
			return options{}, fmt.Errorf("unknown workload %q", name)
		}
		opts.workloads = append(opts.workloads, w)
	}
	if len(opts.workloads) == 0 {
		return options{}, fmt.Errorf("no workload selected")
	}
	return opts, nil
}

// boolValueArgs lets a boolean flag take its value as a separate
// argument ("--trace 0", the benchmark driver's form), which package
// flag would read as the flag followed by a stray positional.
func boolValueArgs(args []string, name string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		out = append(out, args[i])
		if (args[i] == "-"+name || args[i] == "--"+name) && i+1 < len(args) {
			if _, err := strconv.ParseBool(args[i+1]); err == nil {
				out[len(out)-1] += "=" + args[i+1]
				i++
			}
		}
	}
	return out
}

// report is the whole run, as -out writes it.
type report struct {
	Env       environment      `json:"env"`
	Workloads []workloadReport `json:"workloads"`
}

// workloadReport is one workload's reduced measurements.
type workloadReport struct {
	Name string `json:"name"`
	// Values are the reported end-to-end metrics: metricDef.best of the
	// repetitions summarised in EndToEnd, which also holds the derived
	// sim_s_per_wall_s where it applies. Metrics measured once per
	// process (peak_rss_mb, setup_s) have N = 1.
	Values     map[string]float64 `json:"values"`
	EndToEnd   map[string]spread  `json:"end_to_end"`
	Noisy      []string           `json:"noisy,omitempty"`
	Reps       int                `json:"repetitions"`
	OpsPerRep  int                `json:"ops_per_repetition"`
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	FailedFrac float64            `json:"failed_frac"`
	Problems   []string           `json:"problems,omitempty"`
	Counts     counts             `json:"counts"`
	Repeats    bool               `json:"counts_repeat"`
	Layer      map[string]float64 `json:"per_layer,omitempty"`
}

// correct is the benchmark's verdict on a workload's outputs.
func (r workloadReport) correct() bool { return r.Failed == 0 && r.Repeats }

func run(opts options, stdout io.Writer) int {
	env := stampEnvironment(opts)
	fmt.Fprintln(stdout, env)

	if opts.repeatCheck {
		return repeatCheck(opts, env, stdout)
	}
	rep, err := measure(opts, env, stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if opts.out != "" {
		if err := writeJSON(opts.out, rep); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	code := 0
	for _, w := range rep.Workloads {
		if !w.correct() {
			code = 1
		}
	}
	if len(rep.Workloads) == 1 {
		// The driver's contract: the last line is one JSON object.
		line, err := contractLine(rep.Workloads[0], opts.trace)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		fmt.Fprintln(stdout, line)
	}
	return code
}

// measure runs every selected workload, one child process at a time, and
// prints each one's table as it completes.
func measure(opts options, env environment, stdout io.Writer) (report, error) {
	rep := report{Env: env}
	for _, w := range opts.workloads {
		res, err := spawn(w, opts, env.GOMAXPROCS)
		if err != nil {
			return rep, fmt.Errorf("workload %s: %w", w.name, err)
		}
		wr := reduce(res)
		for _, p := range wr.Problems {
			fmt.Fprintf(os.Stderr, "bench: %s: %s\n", w.name, p)
		}
		printWorkload(stdout, wr)
		rep.Workloads = append(rep.Workloads, wr)
	}
	return rep, nil
}

// spawn re-executes this binary as the child for one workload and decodes
// what it prints. A fresh process per workload gives each its own peak
// RSS, heap and set-up; running them one at a time keeps them from
// contending for the box's few cores.
func spawn(w benchWorkload, opts options, procs int) (*childResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cfg := childConfig{
		Workload: w.name, Seed: opts.seed, Seconds: opts.seconds, Trace: opts.trace, Quick: opts.quick,
		Scratch: opts.scratch,
	}
	if opts.quick {
		cfg.Seconds = 0
	}
	cmd := exec.Command(exe)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	cfg.StartUnixNano = time.Now().UnixNano()
	raw, err := json.Marshal(cfg)
	if err != nil {
		return nil, err
	}
	cmd.Env = append(os.Environ(), childEnv+"="+string(raw), "GOMAXPROCS="+strconv.Itoa(procs))
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("child process: %w", err)
	}
	var res childResult
	if err := json.Unmarshal(stdout.Bytes(), &res); err != nil {
		return nil, fmt.Errorf("decoding child output: %w", err)
	}
	return &res, nil
}

// reduce turns a child's per-repetition series into spreads.
func reduce(res *childResult) workloadReport {
	wr := workloadReport{
		Name: res.Workload,
		EndToEnd: map[string]spread{
			"jobs_per_s":  summarize(res.JobsPerS),
			"op_p50_ms":   summarize(res.OpP50Ms),
			"op_p99_ms":   summarize(res.OpP99Ms),
			"peak_rss_mb": summarize([]float64{res.PeakRSSMB}),
			"setup_s":     summarize([]float64{res.SetupS}),
		},
		Values: make(map[string]float64, len(endToEnd)),
		Reps:   len(res.WallS), OpsPerRep: res.OpsPerRep,
		Attempted: res.Attempted, Failed: res.Failed, Problems: res.Problems,
		Counts: res.Counts, Repeats: res.CountsRepeat, Layer: res.Layer,
	}
	if res.Counts.MakespanS > 0 {
		wr.EndToEnd["sim_s_per_wall_s"] = summarize(res.SimSPerWallS)
	}
	if res.Attempted > 0 {
		wr.FailedFrac = float64(res.Failed) / float64(res.Attempted)
	}
	for _, m := range endToEnd {
		wr.Values[m.Name] = m.best(wr.EndToEnd[m.Name])
		if wr.EndToEnd[m.Name].relIQR() > m.Bound {
			wr.Noisy = append(wr.Noisy, m.Name)
		}
	}
	return wr
}

func printWorkload(w io.Writer, wr workloadReport) {
	tail := "op_p99_ms is the slowest operation"
	if beyond := wr.OpsPerRep - rankOf(max(wr.OpsPerRep, 1), 0.99); beyond >= minBeyond {
		tail = fmt.Sprintf("op_p99_ms has %d samples beyond it", beyond)
	}
	fmt.Fprintf(w, "\nworkload %s: %d repetitions, %d timed operation(s) each (%s)\n", wr.Name, wr.Reps, wr.OpsPerRep, tail)
	fmt.Fprintf(w, "  %-18s %-6s %12s %12s %12s %12s %12s %12s %3s %7s %6s\n",
		"metric", "unit", "best", "median", "min", "q1", "q3", "max", "n", "iqr/med", "bound")
	row := func(m metricDef) {
		s, ok := wr.EndToEnd[m.Name]
		if !ok {
			return
		}
		flag := ""
		for _, n := range wr.Noisy {
			if n == m.Name {
				flag = "  noisy"
			}
		}
		fmt.Fprintf(w, "  %-18s %-6s %12.4f %12.4f %12.4f %12.4f %12.4f %12.4f %3d %6.1f%% %5.0f%%%s\n",
			m.Name, m.Unit, m.best(s), s.Median, s.Min, s.Q1, s.Q3, s.Max, s.N, 100*s.relIQR(), 100*m.Bound, flag)
	}
	for _, m := range endToEnd {
		row(m)
	}
	row(simSPerWallS)
	fmt.Fprintf(w, "  failed_frac        ratio  %12.6f   (%d failed of %d attempted; exact-repeat counts %s)\n",
		wr.FailedFrac, wr.Failed, wr.Attempted, map[bool]string{true: "matched", false: "DIFFERED"}[wr.Repeats])
	c := wr.Counts
	fmt.Fprintf(w, "  counts: jobs=%d makespan_s=%.3f runs=%d algorithm_runs=%d limit_updates=%d samples=%d collector_mb=%.2f peak_containers_per_node=%d\n",
		c.Jobs, c.MakespanS, c.Runs, c.AlgorithmRuns, c.LimitUpdates, c.Samples, float64(c.CollectorBytes)/(1<<20), c.PeakPerNode)
	if wr.Layer == nil {
		return
	}
	fmt.Fprintln(w, "  per-layer:")
	sum := 0.0
	for _, m := range perLayer {
		v := wr.Layer[m.Name]
		if strings.HasSuffix(m.Name, ".cpu_share") {
			sum += v
		}
		fmt.Fprintf(w, "    %-36s %-6s %16.4f\n", m.Name, m.Unit, v)
	}
	fmt.Fprintf(w, "    (cpu shares sum to %.4f)\n", sum)
}

// contractLine is the driver's one-line result: the end-to-end metrics of
// an untraced run, the per-layer metrics of a traced one.
func contractLine(wr workloadReport, traced bool) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value)
	if traced {
		for _, m := range perLayer {
			metrics[m.Name] = value{wr.Layer[m.Name], m.Unit}
		}
	} else {
		for _, m := range endToEnd {
			metrics[m.Name] = value{wr.Values[m.Name], m.Unit}
		}
	}
	// Marshal fails only on a NaN or infinite value, i.e. a metric that
	// was never measured; no line is better than a made-up one.
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{wr.correct(), max(wr.Attempted, 1), wr.Failed, metrics})
	return string(line), err
}

// repeatCheck runs the end-to-end pass twice back to back and holds the
// second set of values against the first: no metric may be worse by more
// than its bound, and the simulated counts must be identical. It is how
// to find out whether a box is quiet enough to claim anything on.
func repeatCheck(opts options, env environment, stdout io.Writer) int {
	opts.trace = false
	var sets [2]report
	for i := range sets {
		fmt.Fprintf(stdout, "\n== repeat-check: set %d of 2 ==\n", i+1)
		rep, err := measure(opts, env, stdout)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		sets[i] = rep
	}
	fmt.Fprintf(stdout, "\n== repeat-check: second set against first ==\n")
	fmt.Fprintf(stdout, "  %-18s %-12s %12s %12s %8s %6s  %s\n", "workload", "metric", "first", "second", "worse by", "bound", "verdict")
	code := 0
	for i, a := range sets[0].Workloads {
		b := sets[1].Workloads[i]
		for _, m := range endToEnd {
			x, y := a.Values[m.Name], b.Values[m.Name]
			worse := (y - x) / x
			if m.Better == "higher" {
				worse = (x - y) / x
			}
			verdict := "ok"
			if worse > m.Bound || math.IsNaN(worse) {
				verdict, code = "VIOLATION", 1
			}
			fmt.Fprintf(stdout, "  %-18s %-12s %12.4f %12.4f %7.1f%% %5.0f%%  %s\n", a.Name, m.Name, x, y, 100*worse, 100*m.Bound, verdict)
		}
		verdict := "identical"
		if a.Counts != b.Counts || !a.Repeats || !b.Repeats {
			verdict, code = "DIFFERENT", 1
		}
		fmt.Fprintf(stdout, "  %-18s %-12s %s\n", a.Name, "counts", verdict)
		if !a.correct() || !b.correct() {
			code = 1
		}
	}
	if opts.out != "" {
		if err := writeJSON(opts.out, sets); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	return code
}

func writeJSON(path string, v any) error {
	raw, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// environment is the stamp printed at the top of every run, so two
// reports are never compared without knowing what produced them.
type environment struct {
	Commit     string  `json:"commit"`
	Go         string  `json:"go"`
	CPU        string  `json:"cpu"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Load1      float64 `json:"load1_at_start"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	MinReps    int     `json:"min_repetitions"`
	Quick      bool    `json:"quick,omitempty"`
}

func stampEnvironment(opts options) environment {
	env := environment{
		Commit: "unknown", Go: runtime.Version(), CPU: "unknown", NProc: runtime.NumCPU(),
		// The children get an explicit width: the simulator's default engine
		// is serial and the live load uses two connections, so more than a
		// few threads only adds scheduler noise on a bigger box.
		GOMAXPROCS: min(runtime.NumCPU(), 4),
		Seed:       opts.seed, Seconds: opts.seconds, MinReps: minReps, Quick: opts.quick,
	}
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		env.Commit = strings.TrimSpace(string(out))
	}
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				env.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if raw, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(raw)); len(f) > 0 {
			env.Load1, _ = strconv.ParseFloat(f[0], 64)
		}
	}
	return env
}

func (e environment) String() string {
	mode := fmt.Sprintf("seconds=%g min_reps=%d", e.Seconds, e.MinReps)
	if e.Quick {
		mode = "quick"
	}
	return fmt.Sprintf("flowcon bench: commit=%s go=%s cpu=%q nproc=%d GOMAXPROCS=%d load1=%.2f seed=%d %s",
		e.Commit, e.Go, e.CPU, e.NProc, e.GOMAXPROCS, e.Load1, e.Seed, mode)
}

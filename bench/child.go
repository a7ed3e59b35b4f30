package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

// childEnv carries one workload's configuration to the re-executed
// process. An environment variable rather than flags, so the same check
// at the top of main and of the tests' TestMain turns either binary into
// a child.
const childEnv = "FLOWCON_BENCH_CHILD"

// childConfig is what the parent asks one child to do.
type childConfig struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    bool    `json:"trace"`
	Quick    bool    `json:"quick"`
	// StartUnixNano is the parent's clock just before it started the
	// child; set-up time is measured from it.
	StartUnixNano int64 `json:"start_unix_nano"`
	// Scratch is where the CPU profile is written.
	Scratch string `json:"scratch"`
}

// childResult is one workload's measurements, printed by the child as
// one JSON document on standard output.
type childResult struct {
	Workload string `json:"workload"`
	// Per measured repetition, in order.
	JobsPerS     []float64 `json:"jobs_per_s"`
	SimSPerWallS []float64 `json:"sim_s_per_wall_s"`
	OpP50Ms      []float64 `json:"op_p50_ms"`
	OpP99Ms      []float64 `json:"op_p99_ms"`
	WallS        []float64 `json:"wall_s"`
	// OpsPerRep is how many operations each repetition's percentiles
	// rest on.
	OpsPerRep int `json:"ops_per_rep"`

	PeakRSSMB float64 `json:"peak_rss_mb"`
	SetupS    float64 `json:"setup_s"`

	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Problems  []string `json:"problems,omitempty"`
	// Counts are the first repetition's simulated statistics;
	// CountsRepeat says every later repetition matched them exactly.
	Counts       counts `json:"counts"`
	CountsRepeat bool   `json:"counts_repeat"`

	// Layer holds every per-layer metric when the traced pass ran.
	Layer map[string]float64 `json:"layer,omitempty"`
}

// minReps is the fewest measured repetitions a median is taken over.
const minReps = 5

// childMain runs when the process is a child; it never returns.
func childMain(raw string) {
	var cfg childConfig
	if err := json.Unmarshal([]byte(raw), &cfg); err != nil {
		fmt.Fprintln(os.Stderr, "bench child: bad configuration:", err)
		os.Exit(2)
	}
	res, err := runChild(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench child:", err)
		os.Exit(1)
	}
	if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "bench child:", err)
		os.Exit(1)
	}
	os.Exit(0)
}

// runChild measures one workload: a discarded warm-up repetition, the
// end-to-end repetitions with nothing wrapped, then (traced runs only)
// the per-layer pass.
func runChild(cfg childConfig) (*childResult, error) {
	w, ok := workloadByName(cfg.Workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.Workload)
	}
	res := &childResult{Workload: w.name, CountsRepeat: true}
	env := repEnv{seed: cfg.Seed, quick: cfg.Quick}

	// note folds one repetition's checks into the result. Every
	// repetition — warm-up and traced included — is checked, and its
	// counts must equal the first one's.
	first := true
	note := func(label string, out repOutcome) {
		res.Attempted += out.attempted
		res.Failed += out.failed
		for _, p := range out.problems {
			res.Problems = append(res.Problems, label+": "+p)
		}
		if first {
			res.Counts, first = out.counts, false
		} else if out.counts != res.Counts {
			res.CountsRepeat = false
			res.Failed++
			res.Problems = append(res.Problems, fmt.Sprintf("%s: simulated statistics %+v differ from the first repetition's %+v",
				label, out.counts, res.Counts))
		}
	}

	// The warm-up pays for heap growth, page faults and lazy
	// initialisation, so it belongs to set-up, not to the medians.
	note("warm-up", w.run(env))
	runtime.GC()
	res.SetupS = float64(time.Now().UnixNano()-cfg.StartUnixNano) / 1e9

	reps := minReps
	if cfg.Quick {
		reps = 1
	}
	before := readProcess()
	begin := time.Now()
	for i := 1; i <= reps || time.Since(begin).Seconds() < cfg.Seconds; i++ {
		env.index = i
		out := w.run(env)
		note(fmt.Sprintf("repetition %d", i), out)
		res.JobsPerS = append(res.JobsPerS, float64(out.jobs)/out.wall)
		res.SimSPerWallS = append(res.SimSPerWallS, out.counts.MakespanS/out.wall)
		res.OpP50Ms = append(res.OpP50Ms, out.p50Ms)
		res.OpP99Ms = append(res.OpP99Ms, out.p99Ms)
		res.WallS = append(res.WallS, out.wall)
		res.OpsPerRep = out.ops
		// Each repetition starts from a collected heap, so one
		// repetition's garbage is not the next one's GC work.
		runtime.GC()
	}
	perRep := readProcess().sub(before).per(len(res.WallS))
	res.PeakRSSMB = peakRSSMB()

	if cfg.Trace {
		env.index = len(res.WallS) + 1
		layer, err := tracePass(cfg, w, env, median(res.WallS), perRep, note)
		if err != nil {
			return nil, err
		}
		res.Layer = layer
	}
	return res, nil
}

// process is the host-side cost of a stretch of the run.
type process struct {
	cpuS, allocMB, mallocs, gcCycles, gcPauseMs float64
}

func readProcess() process {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF with a valid pointer
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return process{
		cpuS:      tv(ru.Utime) + tv(ru.Stime),
		allocMB:   float64(ms.TotalAlloc) / (1 << 20),
		mallocs:   float64(ms.Mallocs),
		gcCycles:  float64(ms.NumGC),
		gcPauseMs: float64(ms.PauseTotalNs) / 1e6,
	}
}

func (p process) sub(q process) process {
	return process{p.cpuS - q.cpuS, p.allocMB - q.allocMB, p.mallocs - q.mallocs, p.gcCycles - q.gcCycles, p.gcPauseMs - q.gcPauseMs}
}

func (p process) per(n int) process {
	f := float64(max(n, 1))
	return process{p.cpuS / f, p.allocMB / f, p.mallocs / f, p.gcCycles / f, p.gcPauseMs / f}
}

// peakRSSMB is the process's high-water resident set. Linux reports
// ru_maxrss in KiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // as above
	return float64(ru.Maxrss) / 1024
}

// shardedReps is how many repetitions the traced pass gives the sharded
// engine; the serial side of the comparison is the end-to-end median.
const shardedReps = 3

// tracePass produces every per-layer metric for one workload: a single
// repetition under the CPU profiler with the seams wrapped, the sharded
// engine's repetitions where it applies, and the isolated drives.
func tracePass(cfg childConfig, w benchWorkload, env repEnv, e2eWall float64, perRep process,
	note func(string, repOutcome)) (map[string]float64, error) {
	m := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		m[d.Name] = 0
	}

	if err := os.MkdirAll(cfg.Scratch, 0o755); err != nil {
		return nil, err
	}
	prof := filepath.Join(cfg.Scratch, fmt.Sprintf("%s-%d.cpu.prof", w.name, os.Getpid()))
	defer os.Remove(prof)
	s := &seams{}
	traced := env
	traced.trace = s
	var out repOutcome
	if err := profiled(prof, func() { out = w.run(traced) }); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	note("traced repetition", out)
	runtime.GC()
	shares, err := profileShares(prof)
	if err != nil {
		return nil, err
	}
	for bucket, share := range shares {
		m[bucket+".cpu_share"] = share
	}

	m["experiment.run_s"] = out.wall
	m["cluster.place_calls"], m["cluster.place_s"] = float64(s.place.calls), s.place.seconds()
	m["workload.next_calls"], m["workload.next_s"] = float64(s.next.calls), s.next.seconds()
	m["flowcon.cycle_calls"], m["flowcon.cycle_s"] = float64(s.cycle.calls), s.cycle.seconds()
	m["flowcon.cycle_self_s"] = s.cycleSelf().Seconds()
	m["simdocker.set_limit_calls"], m["simdocker.set_limit_s"] = float64(s.setLimit.calls), s.setLimit.seconds()
	m["simdocker.stats_calls"], m["simdocker.stats_s"] = float64(s.stats.calls), s.stats.seconds()
	m["metrics.record_run_calls"], m["metrics.record_run_s"] = float64(s.recordRun.calls), s.recordRun.seconds()
	if l := out.live; l != nil {
		m["agent.handler_p50_us"], m["agent.handler_p99_us"] = l.handlerP50Us, l.handlerP99Us
		m["agent.client_overhead_p50_us"] = out.p50Ms*1e3 - l.handlerP50Us
		m["agent.poll_p50_us"], m["agent.poll_p99_us"] = l.pollP50Us, l.pollP99Us
		m["livedock.running_at_end"] = float64(l.runningAtEnd)
	}

	c := out.counts
	m["experiment.jobs"] = float64(c.Jobs)
	m["experiment.makespan_s"] = c.MakespanS
	m["experiment.runs_per_pass"] = float64(c.Runs) / float64(max(out.passes, 1))
	m["flowcon.algorithm_runs"] = float64(c.AlgorithmRuns)
	m["flowcon.limit_updates"] = float64(c.LimitUpdates)
	m["metrics.samples"] = float64(c.Samples)
	m["metrics.collector_mb"] = float64(c.CollectorBytes) / (1 << 20)
	m["simdocker.peak_containers_per_node"] = float64(c.PeakPerNode)

	m["process.cpu_s_per_rep"] = perRep.cpuS
	m["process.alloc_mb_per_rep"] = perRep.allocMB
	m["process.mallocs_per_rep"] = perRep.mallocs
	m["process.gc_cycles_per_rep"] = perRep.gcCycles
	m["process.gc_pause_ms_per_rep"] = perRep.gcPauseMs
	m["bench.trace_overhead_frac"] = out.wall/e2eWall - 1

	if w.sharded {
		sharded := env
		sharded.shards = runtime.GOMAXPROCS(0)
		reps := shardedReps
		if cfg.Quick {
			reps = 1
		}
		var walls []float64
		for i := 0; i < reps; i++ {
			out := w.run(sharded)
			note(fmt.Sprintf("sharded repetition %d", i+1), out)
			walls = append(walls, out.wall)
			m["sim.shard_events_per_epoch"] = out.shardEventsPerEpoch
			runtime.GC()
		}
		m["sim.sharded_speedup"] = e2eWall / median(walls)
	}

	if w.workers > 0 {
		err = simDrives(m, w, c.PeakPerNode, cfg.Seed, cfg.Quick)
	} else {
		err = liveDrives(m, cfg.Quick)
	}
	return m, err
}

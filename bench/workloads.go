package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"repro/internal/dlmodel"
	"repro/internal/experiment"
	"repro/internal/metrics"
	"repro/internal/workload"
)

// benchWorkload is one benchmark input set. The table in workloads() is the
// single place their sizes live; README.md explains why each exists.
type benchWorkload struct {
	name string
	why  string
	// workers is the cluster width (the W the isolated drives use); 0 for
	// the live workload, which has no simulated cluster.
	workers int
	// sharded marks the workloads on which the traced pass also times the
	// sharded engine (only multi-worker registered scenarios can use it).
	sharded bool
	// run executes one repetition.
	run func(env repEnv) repOutcome
}

// repEnv is what one repetition is given.
type repEnv struct {
	seed  int64
	quick bool
	// index numbers the repetition within the process (0 = warm-up); the
	// live workload uses it to keep job names unique.
	index int
	// shards is Spec.SimShards for this repetition (0 = serial engine).
	shards int
	// trace, when non-nil, wraps the public seams and collects their
	// spans; nil repetitions touch nothing.
	trace *seams
}

// counts are the simulated statistics of one repetition. The simulator
// is deterministic, so for one seed they repeat exactly; a difference
// between two repetitions means behaviour changed, not speed.
type counts struct {
	Jobs           int     `json:"jobs"`
	MakespanS      float64 `json:"makespan_s"`
	Runs           int     `json:"runs"`
	AlgorithmRuns  int     `json:"algorithm_runs"`
	LimitUpdates   int     `json:"limit_updates"`
	Samples        int64   `json:"samples"`
	CollectorBytes int     `json:"collector_bytes"`
	PeakPerNode    int     `json:"peak_containers_per_node"`
}

// repOutcome is what one repetition reports.
type repOutcome struct {
	wall float64 // seconds
	// p50Ms/p99Ms are the repetition's operation latency percentiles: a
	// submit round trip for the live workload, one pass (one scenario
	// run, or one sweep of the paper's evaluation set) for the simulator.
	p50Ms, p99Ms float64
	ops          int // timed operations behind the percentiles
	// jobs is the numerator of jobs_per_s: jobs simulated to completion,
	// or submissions the live worker accepted.
	jobs      int
	attempted int
	failed    int
	passes    int
	counts    counts
	// shardEventsPerEpoch is ShardProfile.BatchEvents / Epochs when the
	// repetition ran on the sharded engine, else 0.
	shardEventsPerEpoch float64
	live                *liveStats
	problems            []string
}

func workloads() []benchWorkload {
	return []benchWorkload{
		{
			name:    "cluster-scale",
			why:     "ROADMAP headline: 256 workers, ~3400 jobs, 2 s sampling; the metrics observer dominates, so observer work shows here",
			workers: 256, sharded: true,
			run: scenarioRun("cluster-scale", 8, 100),
		},
		{
			name:    "megacluster-smoke",
			why:     "breadth: 1000 workers, ~51k streamed jobs; placement scan, GC and O(jobs) collector memory show here; gate for peak_rss_mb",
			workers: 1000, sharded: true,
			run: scenarioRun("megacluster-smoke", 16, 200),
		},
		{
			name:    "dense-node",
			why:     "depth: 2 workers at ~120 containers each; Algorithm 1 pushing limits through the water-fill allocator dominates",
			workers: 2,
			run:     denseNodeRun,
		},
		{
			name:    "paper-figures",
			why:     "what most users run: the paper's evaluation set as hundreds of ~1 ms dense-tier runs through the sweep pool; per-run fixed cost shows here",
			workers: 1,
			run:     paperFiguresRun,
		},
		{
			name: "live-submit",
			why:  "the live /v1 path: closed loop, 2 clients x 2000 submits over loopback HTTP; touches no simulator layer, so sim-only changes must leave it flat",
			run:  liveSubmitRun,
		},
	}
}

func workloadByName(name string) (benchWorkload, bool) {
	for _, w := range workloads() {
		if w.name == name {
			return w, true
		}
	}
	return benchWorkload{}, false
}

// scenarioRun runs a registered scenario once per repetition. In quick
// mode the same scenario is cut to quickWorkers workers and quickJobs
// arrivals so the whole path still executes in well under a second.
func scenarioRun(name string, quickWorkers, quickJobs int) func(repEnv) repOutcome {
	return func(env repEnv) repOutcome {
		return simRep(env, 1, func() ([]*experiment.Result, []string) {
			sc, ok := experiment.ScenarioByName(name)
			if !ok {
				return nil, []string{fmt.Sprintf("scenario %q is not registered", name)}
			}
			if env.quick {
				sc.Workers = quickWorkers
			}
			spec := sc.Spec(env.seed)
			if env.quick {
				spec.Arrivals = &limitStream{inner: spec.Arrivals, left: quickJobs}
			}
			return runSpec(spec, env)
		})
	}
}

// denseNodeSpec is the one workload defined here rather than in the
// scenario registry: two very large nodes with no admission cap, so a
// node carries well over a hundred containers at its peak and every
// Algorithm 1 run issues one SetCPULimit (one water-fill) per container.
func denseNodeSpec(seed int64, quick bool) experiment.Spec {
	return experiment.Spec{
		Name:                 fmt.Sprintf("dense-node [seed=%d]", seed),
		NewPolicy:            experiment.FlowConPolicy(0.05, 20),
		Arrivals:             workload.SliceStream(denseNodeSchedule(seed, quick)),
		Workers:              2,
		Capacity:             80,
		SamplePeriod:         15,
		MemoryBytesPerWorker: -1,
		ContentionOverhead:   -1,
	}
}

// denseNodeSchedule is 1.2 jobs/s for 1200 s, evenly spaced, in rounds
// that each hold every catalog model once; the seed decides only the
// order within each round. A node's cost grows with the square of its
// depth, so with Poisson arrivals — count and burstiness both
// seed-dependent — jobs_per_s differed by 44 % between seeds, which no
// bound could hold. This way every seed gives the same amount of work.
func denseNodeSchedule(seed int64, quick bool) []workload.Submission {
	const rate = 1.2
	rounds := 144 // x 10 models = 1440 jobs
	if quick {
		rounds = 7
	}
	rng := rand.New(rand.NewSource(seed))
	var subs []workload.Submission
	for r := 0; r < rounds; r++ {
		round := dlmodel.Catalog()
		rng.Shuffle(len(round), func(i, j int) { round[i], round[j] = round[j], round[i] })
		for _, p := range round {
			subs = append(subs, workload.Submission{
				Name: fmt.Sprintf("Job-%d", len(subs)+1), Profile: p, At: float64(len(subs)) / rate,
			})
		}
	}
	return subs
}

func denseNodeRun(env repEnv) repOutcome {
	return simRep(env, 1, func() ([]*experiment.Result, []string) {
		return runSpec(denseNodeSpec(env.seed, env.quick), env)
	})
}

// runSpec applies the repetition's engine choice and seam wrappers to a
// spec and runs it.
func runSpec(spec experiment.Spec, env repEnv) ([]*experiment.Result, []string) {
	spec.SimShards = env.shards
	if env.trace != nil {
		env.trace.wrap(&spec)
	}
	res, err := experiment.RunE(spec)
	if err != nil {
		return nil, []string{err.Error()}
	}
	return []*experiment.Result{res}, nil
}

// paperPasses is how many times one repetition sweeps the evaluation
// set; a single sweep is ~50 ms, too short to time.
const paperPasses = 40

func paperFiguresRun(env repEnv) repOutcome {
	passes := paperPasses
	if env.quick {
		passes = 1
	}
	return simRep(env, passes, func() ([]*experiment.Result, []string) { return paperPass(env.seed) })
}

// paperPass regenerates the paper's §5 evaluation set once: Figures 3-6
// and 9, Table 2, the four FlowCon/NA pairs, and an 8-seed study. The
// regenerators panic on an incomplete run; that becomes a named problem.
func paperPass(seed int64) (results []*experiment.Result, problems []string) {
	defer func() {
		if r := recover(); r != nil {
			problems = append(problems, fmt.Sprintf("figure regenerator panicked: %v", r))
		}
	}()
	fig4, fig5 := experiment.Fig4(), experiment.Fig5()
	for _, sw := range []*experiment.SettingSweep{experiment.Fig3(), fig4, fig5, experiment.Fig6(), experiment.Fig9()} {
		results = append(results, sw.Results...)
	}
	if rows := experiment.Table2(fig4, fig5); len(rows) == 0 {
		problems = append(problems, "Table2 is empty")
	}
	fixedFC, fixedNA := experiment.FixedPair()
	tenFC, tenNA := experiment.TenJobPair()
	for _, pair := range []struct {
		name   string
		fc, na *experiment.Result
	}{{"FixedPair", fixedFC, fixedNA}, {"TenJobPair", tenFC, tenNA}} {
		if pair.fc.Makespan > pair.na.Makespan*1.01 {
			problems = append(problems, fmt.Sprintf("%s: FlowCon makespan %.1f s exceeds NA %.1f s by more than 1%%",
				pair.name, pair.fc.Makespan, pair.na.Makespan))
		}
	}
	const tf = "MNIST (Tensorflow)"
	if fc, na := fixedFC.CompletionTimes()[tf], fixedNA.CompletionTimes()[tf]; !(fc > 0 && fc < na) {
		problems = append(problems, fmt.Sprintf("FixedPair: %s completion %.1f s under FlowCon does not beat NA %.1f s", tf, fc, na))
	}
	randFC, randNA := experiment.RandomPair()
	fifFC, fifNA := experiment.FifteenJobPair()
	results = append(results, fixedFC, fixedNA, randFC, randNA, tenFC, tenNA, fifFC, fifNA)

	study, err := seedStudy(seed)
	if err != nil {
		problems = append(problems, err.Error())
	}
	return append(results, study...), problems
}

// seedStudy runs what experiment.SeedStudy(10, seeds, 0.10, 20) runs,
// spelled out against the public sweep API because SeedStudy returns only
// the aggregate and the benchmark needs each run's result to check it.
// The 8 seeds come from the benchmark seed.
func seedStudy(seed int64) ([]*experiment.Result, error) {
	rng := rand.New(rand.NewSource(seed))
	var specs []experiment.Spec
	for i := 0; i < 8; i++ {
		s := rng.Int63n(1<<31) + 1
		subs := workload.RandomN(10, s)
		specs = append(specs,
			experiment.Spec{Name: fmt.Sprintf("seed-study-%d-fc", s), NewPolicy: experiment.FlowConPolicy(0.10, 20),
				Submissions: subs, TraceLevel: metrics.TierDense},
			experiment.Spec{Name: fmt.Sprintf("seed-study-%d-na", s), NewPolicy: experiment.NAPolicy(20),
				Submissions: subs, TraceLevel: metrics.TierDense})
	}
	sr, err := experiment.Sweep(context.Background(), specs, experiment.SweepOptions{})
	if err == nil {
		err = sr.Err()
	}
	if err != nil {
		err = fmt.Errorf("seed study: %w", err)
	}
	return sr.Results(), err
}

// simRep runs `passes` calls of pass as one repetition. Each pass is one
// timed operation; its results are checked and folded into the
// repetition's counts with the clock stopped, then dropped, so neither
// the checks nor retained results weigh on the timings or the heap.
func simRep(env repEnv, passes int, pass func() ([]*experiment.Result, []string)) repOutcome {
	out := repOutcome{passes: passes}
	opMs := make([]float64, 0, passes)
	for p := 0; p < passes; p++ {
		t0 := time.Now()
		results, problems := pass()
		d := time.Since(t0)
		opMs = append(opMs, float64(d)/1e6)
		out.wall += d.Seconds()
		// A pass that failed outright still attempted something.
		out.attempted += len(problems)
		out.failed += len(problems)
		out.problems = append(out.problems, problems...)
		for _, res := range results {
			out.fold(res)
		}
	}
	if env.trace != nil && env.trace.wrapped {
		// A wrapped policy hides the controller from Result.LimitUpdates;
		// the node wrapper counted the same successful updates.
		out.counts.LimitUpdates = env.trace.setLimitOK
	}
	sort.Float64s(opMs)
	out.ops = len(opMs)
	out.p50Ms, _ = percentile(opMs, 0.50)
	out.p99Ms, _ = percentile(opMs, 0.99)
	return out
}

// fold checks one run and adds its simulated statistics to the counts.
func (out *repOutcome) fold(res *experiment.Result) {
	unfinished, problems := checkResult(res)
	out.attempted += res.Submitted
	out.failed += unfinished
	out.jobs += res.Submitted - unfinished
	out.problems = append(out.problems, problems...)
	c := &out.counts
	c.Runs++
	c.Jobs += res.Submitted
	c.MakespanS += res.Makespan
	c.AlgorithmRuns += res.Collector.AlgorithmRuns()
	c.LimitUpdates += res.LimitUpdates
	c.CollectorBytes += res.Collector.MemoryBytes()
	for _, j := range res.Jobs {
		if s := res.Collector.CPUSummary(j.Name); s != nil {
			c.Samples += s.Count()
		}
	}
	c.PeakPerNode = max(c.PeakPerNode, peakContainersPerNode(res.Jobs))
	if p := res.ShardProfile; p != nil && p.Epochs > 0 {
		out.shardEventsPerEpoch = float64(p.BatchEvents) / float64(p.Epochs)
	}
}

// checkResult applies the per-run output checks and returns how many of
// the run's jobs count as failed operations.
func checkResult(res *experiment.Result) (unfinished int, problems []string) {
	for _, j := range res.Jobs {
		if !j.Finished {
			unfinished++
		}
	}
	unfinished += max(res.Submitted-len(res.Jobs), 0)
	if unfinished > 0 {
		problems = append(problems, fmt.Sprintf("%s: %d of %d jobs did not finish", res.Name, unfinished, res.Submitted))
	}
	bad := func(format string, a ...any) {
		problems = append(problems, res.Name+": "+fmt.Sprintf(format, a...))
		unfinished = max(unfinished, 1)
	}
	if !res.Completed {
		bad("run did not complete")
	}
	if len(res.Jobs) != res.Submitted {
		bad("%d job records for %d submissions", len(res.Jobs), res.Submitted)
	}
	if !(res.Makespan > 0) || math.IsInf(res.Makespan, 0) {
		bad("makespan %g is not finite and positive", res.Makespan)
	}
	return unfinished, problems
}

// peakContainersPerNode is the deepest any one worker ever ran, from the
// job records: +1 at each start, -1 at each finish, exits first at a tie
// (an exit frees the slot the same-instant placement takes).
func peakContainersPerNode(jobs []metrics.JobRecord) int {
	type edge struct {
		t float64
		d int
	}
	byWorker := make(map[string][]edge)
	for _, j := range jobs {
		byWorker[j.Worker] = append(byWorker[j.Worker], edge{j.StartedAt, +1})
		if j.Finished {
			byWorker[j.Worker] = append(byWorker[j.Worker], edge{j.FinishedAt, -1})
		}
	}
	peak := 0
	for _, edges := range byWorker {
		sort.Slice(edges, func(a, b int) bool {
			if edges[a].t != edges[b].t {
				return edges[a].t < edges[b].t
			}
			return edges[a].d < edges[b].d
		})
		cur := 0
		for _, e := range edges {
			cur += e.d
			peak = max(peak, cur)
		}
	}
	return peak
}

// limitStream cuts an arrival stream after a fixed number of jobs — how
// quick mode shrinks a registered scenario without redefining it.
type limitStream struct {
	inner workload.ArrivalStream
	left  int
}

func (s *limitStream) Next() (workload.Submission, bool) {
	if s.left <= 0 {
		return workload.Submission{}, false
	}
	s.left--
	return s.inner.Next()
}

func (s *limitStream) Err() error { return s.inner.Err() }

// Command flowcon-sim regenerates the tables and figures of the FlowCon
// paper (ICPP 2019) on the deterministic simulation substrate, and runs
// the scenario engine's arrival-process stress workloads.
//
// Usage:
//
//	flowcon-sim [-csv dir] [-parallel N] <experiment> [...]
//	flowcon-sim -scenario-list
//	flowcon-sim [-parallel N] [-seeds N] [-record dir] -scenario <name[,name...]|all>
//	flowcon-sim [-workers N] -replay trace.jsonl
//
// where <experiment> is one of: fig1, fig3, fig4, fig5, fig6, fig7, fig8,
// fig9, fig10, fig11, fig12, fig13, fig14, fig15, fig16, fig17, table1,
// table2, all. -parallel N bounds the sweep worker pool (default
// GOMAXPROCS; 1 forces serial execution). Output is byte-identical at
// any pool width — runs land in spec order regardless of interleaving.
//
// Scenarios are seeded arrival-process workloads (Poisson, ON/OFF bursts,
// diurnal cycles, flash crowds, production days, plus the paper's
// schedules) from the named registry; -record writes each generated
// schedule as a replayable JSONL trace and -replay runs such a trace
// (generated or hand-written). Every scenario admits its arrivals from a
// stream, one in flight at a time: a generated stream holds 8 B per
// arrival and builds each submission on pull, which is what keeps the
// million-job megacluster family cheap to feed. That family is excluded
// from "-scenario all"; run those by name (see README "Workloads").
// Scenario runs keep the summary metric tier (O(jobs) job records and
// growth trajectories, no sampling event); experiment (figure) mode
// collects dense — figures re-plot raw samples by definition (see README
// "Observability").
// -trace-out writes every run's job-lifecycle spans as JSONL; it is a
// pure observer (see docs/OBSERVABILITY.md).
// The run-shaping flags (-rebalance, -migration-cost, -trace-out) are
// one edit of every expanded Spec, and
// -replay runs its trace as a one-off scenario through the same path as
// -scenario.
// -cpuprofile/-memprofile capture pprof profiles in every mode (see the
// README's Profiling subsection).
// The cluster-scale scenario (256 workers, thousands of jobs) is the
// perf-baseline workload that `go run ./bench` measures end to end; see
// the README's Performance section.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"

	"repro/internal/experiment"
	"repro/internal/metrics"
	"repro/internal/plot"
)

func main() {
	csvDir := flag.String("csv", "", "also export figure data as CSV into this directory")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0),
		"worker-pool width for experiment sweeps (1 = serial)")
	scenario := flag.String("scenario", "", "run registered scenarios (comma-separated names, or \"all\")")
	scenarioList := flag.Bool("scenario-list", false, "list the scenario registry and exit")
	seeds := flag.Int("seeds", 3, "seeds per scenario (1..N)")
	record := flag.String("record", "", "with -scenario: write each generated schedule as a JSONL trace into this directory")
	replay := flag.String("replay", "", "run a recorded JSONL trace as a one-off scenario")
	replayWorkers := flag.Int("workers", 1, "with -replay: cluster size for the replayed trace")
	rebalance := flag.Bool("rebalance", false,
		"with -scenario: attach the GE-aware migration rebalancer to scenarios that do not already define one")
	migrationCost := flag.Float64("migration-cost", 0,
		"with -scenario: fixed freeze+thaw seconds charged per live migration (0 = calibrated default; transfer time from memory size is added on top)")
	traceOut := flag.String("trace-out", "",
		"with -scenario/-replay: write every run's job-lifecycle spans (submit → admit → place → run → migrate* → exit/fail) as JSONL into this file; tracing is a pure observer — simulation output is unchanged")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Usage = usage
	flag.Parse()
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "flowcon-sim:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "flowcon-sim:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "flowcon-sim:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "flowcon-sim:", err)
			}
		}()
	}
	experiment.SetDefaultParallelism(*parallel)
	// Each mode accepts only its own flags; anything else is refused
	// rather than silently dropped.
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	mode, allowed := "experiment", map[string]bool{"csv": true, "parallel": true}
	switch {
	case *scenarioList:
		mode, allowed = "-scenario-list", map[string]bool{"scenario-list": true}
	case *replay != "":
		mode, allowed = "-replay", map[string]bool{"replay": true, "workers": true, "parallel": true,
			"trace-out": true}
	case *scenario != "":
		mode, allowed = "-scenario", map[string]bool{"scenario": true, "seeds": true, "record": true,
			"parallel": true, "rebalance": true, "migration-cost": true, "trace-out": true}
	}
	// The profiling flags apply to every mode.
	allowed["cpuprofile"] = true
	allowed["memprofile"] = true
	for name := range set {
		if !allowed[name] {
			fmt.Fprintf(os.Stderr, "flowcon-sim: flag -%s does not apply in %s mode\n", name, mode)
			os.Exit(2)
		}
	}
	if mode != "experiment" && flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "flowcon-sim: %s mode takes no experiment arguments (got %q)\n", mode, flag.Args())
		os.Exit(2)
	}
	if *scenarioList {
		runScenarioList()
		return
	}
	rf := runFlags{
		rebalance:     *rebalance,
		migrationCost: *migrationCost,
		traceOut:      *traceOut,
		record:        *record,
	}
	if *replay != "" {
		scen, note := replayScenario(*replay, *replayWorkers)
		rf.run([]experiment.Scenario{scen}, []int64{1}, note)
		return
	}
	if *scenario != "" {
		if *seeds <= 0 {
			fmt.Fprintln(os.Stderr, "flowcon-sim: -seeds must be positive")
			os.Exit(2)
		}
		if *migrationCost < 0 {
			fmt.Fprintln(os.Stderr, "flowcon-sim: -migration-cost must be non-negative")
			os.Exit(2)
		}
		if math.IsNaN(*migrationCost) || math.IsInf(*migrationCost, 0) {
			fmt.Fprintln(os.Stderr, "flowcon-sim: -migration-cost must be finite")
			os.Exit(2)
		}
		rf.run(resolveScenarios(*scenario), experiment.ScenarioSeeds(*seeds), "")
		return
	}
	args := flag.Args()
	if len(args) == 0 {
		usage()
		os.Exit(2)
	}
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "flowcon-sim:", err)
			os.Exit(1)
		}
	}
	app := &app{csvDir: *csvDir}
	want := map[string]bool{}
	for _, a := range args {
		want[strings.ToLower(a)] = true
	}
	if want["all"] {
		for name := range app.experiments() {
			want[name] = true
		}
		delete(want, "all")
	}
	names := make([]string, 0, len(want))
	for n := range want {
		names = append(names, n)
	}
	sort.Strings(names)
	exps := app.experiments()
	for _, name := range names {
		fn, ok := exps[name]
		if !ok {
			fmt.Fprintf(os.Stderr, "flowcon-sim: unknown experiment %q\n", name)
			usage()
			os.Exit(2)
		}
		fn()
		fmt.Println()
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage: flowcon-sim [-csv dir] [-parallel N] <experiment> [...]
       flowcon-sim -scenario-list
       flowcon-sim [-parallel N] [-seeds N] [-record dir]
                   [-rebalance] [-migration-cost sec] [-trace-out spans.jsonl]
                   -scenario <name[,...]|all>
       flowcon-sim [-workers N] [-trace-out spans.jsonl] -replay trace.jsonl

-parallel N  sweeps runs across a worker pool; output is byte-identical
at any width. -trace-out exports every run's job-lifecycle spans as
JSONL (see docs/OBSERVABILITY.md). -cpuprofile and -memprofile write
pprof profiles in every mode.

experiments:
  fig1      training progress of five models (motivation)
  fig3-6    fixed schedule completion times over (alpha, itval) grids
  fig7/8    CPU usage traces, FlowCon vs NA, 3 fixed jobs
  fig9      five random jobs across settings
  fig10/11  CPU usage traces, FlowCon vs NA, 5 random jobs
  fig12     ten random jobs, FlowCon-10%%-20 vs NA
  fig13/14  growth efficiency of Job-2 / Job-6 (from fig12 runs)
  fig15/16  CPU usage traces, 10 jobs
  fig17     fifteen random jobs, FlowCon-10%%-40 vs NA
  table1    the tested-models catalog
  table2    MNIST (Tensorflow) completion reductions
  seeds     multi-seed robustness study (beyond the paper)
  ablations design-choice ablations (backoff, listeners, beta, baselines,
            contention, failure recovery, checkpointing)
  all       everything above
`)
}

// app caches expensive shared runs (fig12's pair feeds five figures,
// and table2 reads the fig4 and fig5 sweeps).
type app struct {
	csvDir string

	fixedFC, fixedNA *experiment.Result
	randFC, randNA   *experiment.Result
	tenFC, tenNA     *experiment.Result
	sweep4, sweep5   *experiment.SettingSweep
}

func (a *app) fixedPair() (*experiment.Result, *experiment.Result) {
	if a.fixedFC == nil {
		a.fixedFC, a.fixedNA = experiment.FixedPair()
	}
	return a.fixedFC, a.fixedNA
}

func (a *app) randomPair() (*experiment.Result, *experiment.Result) {
	if a.randFC == nil {
		a.randFC, a.randNA = experiment.RandomPair()
	}
	return a.randFC, a.randNA
}

func (a *app) tenPair() (*experiment.Result, *experiment.Result) {
	if a.tenFC == nil {
		a.tenFC, a.tenNA = experiment.TenJobPair()
	}
	return a.tenFC, a.tenNA
}

func (a *app) fig4() *experiment.SettingSweep {
	if a.sweep4 == nil {
		a.sweep4 = experiment.Fig4()
	}
	return a.sweep4
}

func (a *app) fig5() *experiment.SettingSweep {
	if a.sweep5 == nil {
		a.sweep5 = experiment.Fig5()
	}
	return a.sweep5
}

// exportCPU writes a result's CPU traces as CSV if -csv was given.
func (a *app) exportCPU(name string, res *experiment.Result) {
	if a.csvDir == "" {
		return
	}
	var lines []plot.Line
	for _, j := range res.Jobs {
		lines = append(lines, plot.Line{Name: j.Name, Points: res.Collector.CPUSeries(j.Name).Points()})
	}
	a.writeCSV(name, lines)
}

func (a *app) writeCSV(name string, lines []plot.Line) {
	if a.csvDir == "" {
		return
	}
	f, err := os.Create(filepath.Join(a.csvDir, name+".csv"))
	if err != nil {
		fmt.Fprintln(os.Stderr, "flowcon-sim:", err)
		return
	}
	defer f.Close()
	if err := plot.CSV(f, lines); err != nil {
		fmt.Fprintln(os.Stderr, "flowcon-sim:", err)
	}
}

func (a *app) experiments() map[string]func() {
	return map[string]func(){
		"fig1": func() {
			curves := experiment.Fig1()
			experiment.ReportFig1(os.Stdout, curves)
			var lines []plot.Line
			for _, c := range curves {
				var pts []metrics.Point
				for _, p := range c.Points {
					pts = append(pts, metrics.Point{T: p.TimeFrac, V: p.Progress})
				}
				lines = append(lines, plot.Line{Name: c.Model, Points: pts})
			}
			a.writeCSV("fig1", lines)
		},
		"fig3": func() { experiment.ReportSweep(os.Stdout, experiment.Fig3()) },
		"fig4": func() { experiment.ReportSweep(os.Stdout, a.fig4()) },
		"fig5": func() { experiment.ReportSweep(os.Stdout, a.fig5()) },
		"fig6": func() { experiment.ReportSweep(os.Stdout, experiment.Fig6()) },
		"fig7": func() {
			fc, _ := a.fixedPair()
			experiment.ReportCPUTrace(os.Stdout, fc, "Fig7: CPU usage of FlowCon (alpha=5%, itval=20, 3 jobs)")
			a.exportCPU("fig7", fc)
		},
		"fig8": func() {
			_, na := a.fixedPair()
			experiment.ReportCPUTrace(os.Stdout, na, "Fig8: CPU usage of NA (3 jobs)")
			a.exportCPU("fig8", na)
		},
		"fig9": func() { experiment.ReportSweep(os.Stdout, experiment.Fig9()) },
		"fig10": func() {
			fc, _ := a.randomPair()
			experiment.ReportCPUTrace(os.Stdout, fc, "Fig10: CPU usage of FlowCon (alpha=3%, itval=30, 5 jobs)")
			a.exportCPU("fig10", fc)
		},
		"fig11": func() {
			_, na := a.randomPair()
			experiment.ReportCPUTrace(os.Stdout, na, "Fig11: CPU usage of NA (5 jobs)")
			a.exportCPU("fig11", na)
		},
		"fig12": func() {
			fc, na := a.tenPair()
			experiment.ReportPair(os.Stdout, fc, na, "Fig12: ten jobs with random submission")
		},
		"fig13": func() {
			fc, na := a.tenPair()
			experiment.ReportGrowth(os.Stdout, fc, na, "Job-2", "Fig13: growth efficiency of Job-2")
			a.writeCSV("fig13", []plot.Line{
				{Name: "FlowCon-Job-2", Points: experiment.GrowthTrace(fc, "Job-2").Points()},
				{Name: "NA-Job-2", Points: experiment.GrowthTrace(na, "Job-2").Points()},
			})
		},
		"fig14": func() {
			fc, na := a.tenPair()
			experiment.ReportGrowth(os.Stdout, fc, na, "Job-6", "Fig14: growth efficiency of Job-6")
			a.writeCSV("fig14", []plot.Line{
				{Name: "FlowCon-Job-6", Points: experiment.GrowthTrace(fc, "Job-6").Points()},
				{Name: "NA-Job-6", Points: experiment.GrowthTrace(na, "Job-6").Points()},
			})
		},
		"fig15": func() {
			fc, _ := a.tenPair()
			experiment.ReportCPUTrace(os.Stdout, fc, "Fig15: CPU usage of FlowCon (alpha=10%, itval=20, 10 jobs)")
			a.exportCPU("fig15", fc)
		},
		"fig16": func() {
			_, na := a.tenPair()
			experiment.ReportCPUTrace(os.Stdout, na, "Fig16: CPU usage of NA (10 jobs)")
			a.exportCPU("fig16", na)
		},
		"fig17": func() {
			fc, na := experiment.FifteenJobPair()
			experiment.ReportPair(os.Stdout, fc, na, "Fig17: fifteen jobs with random submission")
		},
		"table1": func() { experiment.ReportTable1(os.Stdout) },
		"seeds": func() {
			res := experiment.SeedStudy(10, experiment.DefaultStudySeeds(12), 0.10, 20)
			experiment.ReportSeedStudy(os.Stdout, 10, res)
		},
		"ablations": func() { runAblations() },
		"table2": func() {
			rows := experiment.Table2(a.fig4(), a.fig5())
			experiment.ReportTable2(os.Stdout, rows)
		},
	}
}

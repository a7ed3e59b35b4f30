package experiment

import (
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"repro/internal/flowcon"
	"repro/internal/sched"
	"repro/internal/workload"
)

func TestRunFixedScheduleCompletes(t *testing.T) {
	res := Run(Spec{
		Name:        "basic",
		NewPolicy:   NAPolicy(20),
		Submissions: workload.FixedSchedule(),
	})
	if !res.Completed {
		t.Fatal("run did not complete")
	}
	if len(res.Jobs) != 3 {
		t.Fatalf("recorded %d jobs", len(res.Jobs))
	}
	for _, j := range res.Jobs {
		if !j.Finished || j.CompletionTime() <= 0 {
			t.Fatalf("job %s not finished: %+v", j.Name, j)
		}
	}
	if res.Makespan <= 0 {
		t.Fatal("no makespan")
	}
	if res.Policy != "NA" {
		t.Fatalf("policy = %q", res.Policy)
	}
}

func TestRunIsDeterministic(t *testing.T) {
	spec := Spec{
		Name:        "det",
		NewPolicy:   FlowConPolicy(0.05, 20),
		Submissions: workload.RandomFive(7),
	}
	a := Run(spec)
	b := Run(spec)
	if a.Makespan != b.Makespan {
		t.Fatalf("makespans differ: %v vs %v", a.Makespan, b.Makespan)
	}
	at, bt := a.CompletionTimes(), b.CompletionTimes()
	for name, v := range at {
		if bt[name] != v {
			t.Fatalf("job %s differs: %v vs %v", name, v, bt[name])
		}
	}
	if a.AlgorithmRuns != b.AlgorithmRuns || a.LimitUpdates != b.LimitUpdates {
		t.Fatalf("overhead metrics differ: %d/%d vs %d/%d",
			a.AlgorithmRuns, a.LimitUpdates, b.AlgorithmRuns, b.LimitUpdates)
	}
}

// The headline fixed-schedule claim (Section 5.3 / Figure 3): FlowCon cuts
// the tail job's completion time substantially without hurting makespan.
func TestFixedScheduleShape(t *testing.T) {
	fc, na := FixedPair()
	const job = "MNIST (Tensorflow)"
	f, n := fc.CompletionTimes()[job], na.CompletionTimes()[job]
	reduction := (n - f) / n
	if reduction < 0.15 {
		t.Fatalf("MNIST-TF reduction = %.1f%%, want >= 15%%", reduction*100)
	}
	if fc.Makespan > na.Makespan*1.005 {
		t.Fatalf("makespan sacrificed: FlowCon %.1f vs NA %.1f", fc.Makespan, na.Makespan)
	}
	// VAE dominates the makespan in both systems.
	vae, _ := fc.Job("VAE (Pytorch)")
	if math.Abs(vae.FinishedAt-fc.Makespan) > 1e-9 {
		t.Fatalf("VAE (%.1f) does not set the makespan (%.1f)", vae.FinishedAt, fc.Makespan)
	}
	// FlowCon issues real work: algorithm runs and docker updates happened.
	if fc.AlgorithmRuns == 0 || fc.LimitUpdates == 0 {
		t.Fatalf("no controller activity: %d runs, %d updates", fc.AlgorithmRuns, fc.LimitUpdates)
	}
	// The overlap of the three jobs shrinks (the paper's stated mechanism
	// for the makespan gain).
	jobs := []string{"VAE (Pytorch)", "MNIST (Pytorch)", "MNIST (Tensorflow)"}
	if fc.Collector.Overlap(jobs...) >= na.Collector.Overlap(jobs...) {
		t.Fatalf("overlap did not shrink: %v vs %v",
			fc.Collector.Overlap(jobs...), na.Collector.Overlap(jobs...))
	}
}

// Table 2's interval trend: larger itval reacts more slowly, so the tail
// job's reduction shrinks (the paper: 26.2% at itval=20 down to 3.1% at 60).
func TestTable2IntervalTrend(t *testing.T) {
	sw := Fig4()
	rows := Table2(sw, Fig5())
	byLabel := map[string]float64{}
	for _, r := range rows {
		byLabel[r.Setting.Label()] = r.Reduction
	}
	if byLabel["10%,20"] <= 0 || byLabel["10%,60"] <= 0 {
		t.Fatalf("reductions not positive: %+v", byLabel)
	}
	if byLabel["10%,60"] >= byLabel["10%,20"] {
		t.Fatalf("itval=60 reduction (%.1f%%) not below itval=20 (%.1f%%)",
			byLabel["10%,60"]*100, byLabel["10%,20"]*100)
	}
	// Every tested setting still beats NA.
	for label, red := range byLabel {
		if red <= 0 {
			t.Fatalf("setting %s regressed vs NA: %.1f%%", label, red*100)
		}
	}
}

// Figure 9's claim: FlowCon improves most of the five random jobs at every
// setting and never sacrifices makespan by more than a whisker.
func TestFig9Shape(t *testing.T) {
	sw := Fig9()
	na := sw.ResultFor("NA")
	for i, s := range sw.Settings {
		if s.NA {
			continue
		}
		res := sw.Results[i]
		wins := 0
		for name, v := range res.CompletionTimes() {
			if v < na.CompletionTimes()[name] {
				wins++
			}
		}
		if wins < 3 {
			t.Errorf("setting %s: only %d/5 jobs improved", s.Label(), wins)
		}
		if res.Makespan > na.Makespan*1.01 {
			t.Errorf("setting %s: makespan %.1f vs NA %.1f", s.Label(), res.Makespan, na.Makespan)
		}
	}
}

// Figure 12's claims: most of the ten jobs improve, the makespan improves
// slightly, Job-6 wins while Job-2 loses only a little.
func TestFig12Shape(t *testing.T) {
	fc, na := TenJobPair()
	fcT, naT := fc.CompletionTimes(), na.CompletionTimes()
	wins, best := 0, 0.0
	for name, v := range fcT {
		d := (naT[name] - v) / naT[name]
		if d > 0 {
			wins++
		}
		if d > best {
			best = d
		}
	}
	if wins < 7 {
		t.Fatalf("only %d/10 jobs improved", wins)
	}
	if best < 0.25 {
		t.Fatalf("best reduction %.1f%%, want >= 25%%", best*100)
	}
	if fc.Makespan >= na.Makespan {
		t.Fatalf("makespan not improved: %.1f vs %.1f", fc.Makespan, na.Makespan)
	}
	d2 := (naT["Job-2"] - fcT["Job-2"]) / naT["Job-2"]
	d6 := (naT["Job-6"] - fcT["Job-6"]) / naT["Job-6"]
	if d2 >= 0 || d2 < -0.10 {
		t.Fatalf("Job-2 delta %.1f%%, want a small loss (the Figure 13 case study)", d2*100)
	}
	if d6 <= 0.05 {
		t.Fatalf("Job-6 delta %.1f%%, want a clear win (the Figure 14 case study)", d6*100)
	}
	// Growth-efficiency traces for both case-study jobs exist under both
	// systems (Figures 13/14 plot NA too, via offline instrumentation).
	for _, job := range []string{"Job-2", "Job-6"} {
		if GrowthTrace(fc, job).Len() == 0 || GrowthTrace(na, job).Len() == 0 {
			t.Fatalf("missing growth trace for %s", job)
		}
	}
}

// Figure 17's claims at 15 jobs: FlowCon still improves a solid majority
// and keeps a small makespan edge.
func TestFig17Shape(t *testing.T) {
	fc, na := FifteenJobPair()
	fcT, naT := fc.CompletionTimes(), na.CompletionTimes()
	wins := 0
	for name, v := range fcT {
		if v < naT[name] {
			wins++
		}
	}
	if wins < 10 {
		t.Fatalf("only %d/15 jobs improved", wins)
	}
	if fc.Makespan >= na.Makespan {
		t.Fatalf("makespan not improved: %.1f vs %.1f", fc.Makespan, na.Makespan)
	}
}

// Figure 1: five models' normalized progress curves, each ending at 1 and
// with GRU showing the extreme front-loading the paper highlights (96.8%
// of final accuracy in the first 14.5% of its run).
func TestFig1Curves(t *testing.T) {
	curves := Fig1()
	if len(curves) != 5 {
		t.Fatalf("%d curves", len(curves))
	}
	for _, c := range curves {
		if len(c.Points) < 10 {
			t.Fatalf("%s: only %d points", c.Model, len(c.Points))
		}
		last := c.Points[len(c.Points)-1]
		if last.Progress < 0.95 {
			t.Fatalf("%s: final progress %.2f", c.Model, last.Progress)
		}
	}
	for _, c := range curves {
		if c.Model != "RNN-GRU (Tensorflow)" {
			continue
		}
		// Find progress at ~15% of the run.
		for _, p := range c.Points {
			if p.TimeFrac >= 0.15 {
				if p.Progress < 0.8 {
					t.Fatalf("GRU progress at 15%% time = %.2f, want front-loaded >= 0.8", p.Progress)
				}
				break
			}
		}
	}
}

// The ablation baselines run the fixed schedule to completion.
func TestBaselinePoliciesComplete(t *testing.T) {
	for _, newPolicy := range []func(flowcon.Tracer) sched.Policy{
		StaticEqualPolicy(),
		SLAQPolicy(20),
	} {
		res := Run(Spec{
			Name:        "baseline",
			NewPolicy:   newPolicy,
			Submissions: workload.FixedSchedule(),
		})
		if !res.Completed {
			t.Fatalf("%s did not complete", res.Policy)
		}
	}
}

// Contention overhead behaves as documented: disabling it shortens the
// makespan, and overlapping schedules pay more than serial ones.
func TestContentionOverheadEffect(t *testing.T) {
	base := Spec{
		Name:        "contention",
		NewPolicy:   NAPolicy(20),
		Submissions: workload.FixedSchedule(),
	}
	ideal := base
	ideal.ContentionOverhead = -1
	withOverhead := Run(base)
	noOverhead := Run(ideal)
	if withOverhead.Makespan <= noOverhead.Makespan {
		t.Fatalf("contention did not extend makespan: %v vs %v",
			withOverhead.Makespan, noOverhead.Makespan)
	}
}

// Multi-worker placement spreads jobs and still completes.
func TestMultiWorkerRun(t *testing.T) {
	res := Run(Spec{
		Name:        "two-workers",
		NewPolicy:   FlowConPolicy(0.05, 20),
		Submissions: workload.RandomFive(7),
		Workers:     2,
	})
	if !res.Completed {
		t.Fatal("multi-worker run did not complete")
	}
	workersUsed := map[string]bool{}
	for _, j := range res.Jobs {
		workersUsed[j.Worker] = true
	}
	if len(workersUsed) != 2 {
		t.Fatalf("placement used %d workers, want 2", len(workersUsed))
	}
}

func TestRunSpecValidation(t *testing.T) {
	for name, spec := range map[string]Spec{
		"no policy":      {Submissions: workload.FixedSchedule()},
		"no submissions": {NewPolicy: NAPolicy(20)},
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("invalid spec did not panic")
				}
			}()
			Run(spec)
		})
	}
}

func TestSettingLabel(t *testing.T) {
	if (Setting{NA: true}).Label() != "NA" {
		t.Fatal("NA label")
	}
	if (Setting{Alpha: 0.05, Itval: 20}).Label() != "5%,20" {
		t.Fatal("setting label")
	}
}

func TestSweepResultFor(t *testing.T) {
	sw := &SettingSweep{
		Settings: []Setting{{NA: true}},
		Results:  []*Result{{Name: "x"}},
	}
	if sw.ResultFor("NA") == nil {
		t.Fatal("ResultFor(NA) nil")
	}
	if sw.ResultFor("5%,20") != nil {
		t.Fatal("unknown label returned a result")
	}
}

// TestGoldenHeadlineNumbers locks the deterministic headline results of
// the reproduction to the pinned rows of EXPERIMENTS.md's table, so the
// published numbers and the gate cannot diverge. Any change to
// calibration, allocator semantics, or algorithm behaviour that moves
// these numbers must update EXPERIMENTS.md alongside it.
func TestGoldenHeadlineNumbers(t *testing.T) {
	fc, na := FixedPair()
	fc10, na10 := TenJobPair()
	measured := []struct {
		regenerator string
		got         float64
	}{
		{"`FixedPair` FlowCon makespan", fc.Makespan},
		{"`FixedPair` NA makespan", na.Makespan},
		{"`FixedPair` FlowCon MNIST-TF completion", fc.CompletionTimes()["MNIST (Tensorflow)"]},
		{"`TenJobPair` FlowCon makespan", fc10.Makespan},
		{"`TenJobPair` NA makespan", na10.Makespan},
	}
	pins := readPins(t, "../../EXPERIMENTS.md")
	for _, m := range measured {
		p, ok := pins[m.regenerator]
		if !ok {
			t.Errorf("EXPERIMENTS.md has no pinned row for %s", m.regenerator)
			continue
		}
		delete(pins, m.regenerator)
		if math.Abs(m.got-p.want) > p.tol {
			t.Errorf("%s = %.1f, EXPERIMENTS.md pins %.1f (±%.1f)", m.regenerator, m.got, p.want, p.tol)
		}
	}
	for regenerator := range pins {
		t.Errorf("EXPERIMENTS.md pins %s, which this test does not measure", regenerator)
	}
}

type pin struct{ want, tol float64 }

// readPins parses the pinned rows of a markdown reproduction table: rows
// of four cells (claim, regenerator, reproduced value, tolerance) whose
// tolerance starts with "±". It maps each regenerator cell to the leading
// numbers of its value and tolerance cells.
func readPins(t *testing.T, path string) map[string]pin {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	pins := map[string]pin{}
	for _, line := range strings.Split(string(data), "\n") {
		cells := strings.Split(strings.Trim(strings.TrimSpace(line), "|"), "|")
		if len(cells) != 4 {
			continue
		}
		tol, ok := strings.CutPrefix(strings.TrimSpace(cells[3]), "±")
		if !ok {
			continue
		}
		regenerator := strings.TrimSpace(cells[1])
		var p pin
		if _, err := fmt.Sscan(cells[2], &p.want); err != nil {
			t.Fatalf("%s: %s: value %q: %v", path, regenerator, cells[2], err)
		}
		if _, err := fmt.Sscan(tol, &p.tol); err != nil {
			t.Fatalf("%s: %s: tolerance %q: %v", path, regenerator, cells[3], err)
		}
		if _, dup := pins[regenerator]; dup {
			t.Fatalf("%s pins %s twice", path, regenerator)
		}
		pins[regenerator] = p
	}
	return pins
}

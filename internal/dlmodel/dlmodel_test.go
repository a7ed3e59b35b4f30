package dlmodel

import (
	"math"
	"testing"
	"testing/quick"
)

func TestExpCurveEndpoints(t *testing.T) {
	c := ExpCurve{Start: 100, Final: 10, K: 0.1}
	if got := c.Eval(0); math.Abs(got-100) > 1e-9 {
		t.Fatalf("Eval(0) = %v, want 100", got)
	}
	if got := c.Eval(1e6); math.Abs(got-10) > 1e-6 {
		t.Fatalf("Eval(inf) = %v, want ~10", got)
	}
}

func TestCurveMonotonicityProperty(t *testing.T) {
	exp := ExpCurve{Start: 100, Final: 5, K: 0.07}
	logi := LogisticCurve{Start: 100, Final: 5, W0: 12, S: 0.2}
	f := func(a, b float64) bool {
		wa, wb := math.Abs(a), math.Abs(b)
		if wa > wb {
			wa, wb = wb, wa
		}
		if math.IsNaN(wa) || math.IsInf(wb, 0) {
			return true
		}
		return exp.Eval(wa) >= exp.Eval(wb)-1e-9 && logi.Eval(wa) >= logi.Eval(wb)-1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestValueNoiseDeterministicAndBounded(t *testing.T) {
	for w := 0.0; w < 50; w += 0.37 {
		a := valueNoise(42, w)
		b := valueNoise(42, w)
		if a != b {
			t.Fatalf("noise not deterministic at w=%v", w)
		}
		if a < -1.0000001 || a > 1.0000001 {
			t.Fatalf("noise out of bounds at w=%v: %v", w, a)
		}
	}
}

func TestValueNoiseDiffersAcrossSeeds(t *testing.T) {
	same := 0
	n := 0
	for w := 0.0; w < 100; w += 1.3 {
		if valueNoise(1, w) == valueNoise(2, w) {
			same++
		}
		n++
	}
	if same > n/10 {
		t.Fatalf("noise correlated across seeds: %d/%d identical", same, n)
	}
}

func TestJobLifecycle(t *testing.T) {
	j := NewJob("job-1", MNISTTensorFlow())
	if j.Done() {
		t.Fatal("fresh job already done")
	}
	if j.Remaining() != j.Profile().TotalWork {
		t.Fatalf("Remaining = %v, want %v", j.Remaining(), j.Profile().TotalWork)
	}
	j.Advance(10)
	if j.Work() != 10 {
		t.Fatalf("Work = %v, want 10", j.Work())
	}
	j.Advance(1e6) // overshoot clamps
	if !j.Done() {
		t.Fatal("job not done after full work")
	}
	if j.Work() != j.Profile().TotalWork {
		t.Fatalf("overshoot not clamped: %v", j.Work())
	}
	if j.CPUDemand() != 0 {
		t.Fatalf("done job still demands CPU: %v", j.CPUDemand())
	}
}

func TestJobNegativeAdvancePanics(t *testing.T) {
	j := NewJob("j", GRU())
	defer func() {
		if recover() == nil {
			t.Error("negative Advance did not panic")
		}
	}()
	j.Advance(-1)
}

func TestJobEvalTrendsTowardFinal(t *testing.T) {
	for _, p := range Catalog() {
		j := NewJob("trend-"+p.Key(), p)
		e0 := j.Eval()
		j.Advance(p.TotalWork)
		e1 := j.Eval()
		switch p.Direction {
		case Decreasing:
			if e1 >= e0 {
				t.Errorf("%s: loss did not decrease (%v -> %v)", p.Key(), e0, e1)
			}
		case Increasing:
			if e1 <= e0 {
				t.Errorf("%s: accuracy did not increase (%v -> %v)", p.Key(), e0, e1)
			}
		}
	}
}

func TestJobEvalAtDoesNotMutate(t *testing.T) {
	j := NewJob("peek", VAEPyTorch())
	j.Advance(5)
	before := j.Work()
	_ = j.EvalAt(100)
	if j.Work() != before {
		t.Fatal("EvalAt mutated job work")
	}
}

func TestJobDeterministicAcrossInstances(t *testing.T) {
	a := NewJob("same-id", VAEPyTorch())
	b := NewJob("same-id", VAEPyTorch())
	for w := 0.0; w < 100; w += 7 {
		if a.EvalAt(w) != b.EvalAt(w) {
			t.Fatalf("same job id diverged at w=%v", w)
		}
	}
	c := NewJob("other-id", VAEPyTorch())
	diff := false
	for w := 1.0; w < 100; w += 7 {
		if a.EvalAt(w) != c.EvalAt(w) {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("different job ids produced identical noise")
	}
}

func TestCatalogValidatesAndHasUniqueKeys(t *testing.T) {
	seen := map[string]bool{}
	for _, p := range Catalog() {
		p.Validate()
		if seen[p.Key()] {
			t.Fatalf("duplicate catalog key %s", p.Key())
		}
		seen[p.Key()] = true
	}
	if len(seen) != 10 {
		t.Fatalf("catalog has %d entries, want 10", len(seen))
	}
}

// TestTable1Catalog checks that the Table 1 reproduction carries the
// paper's exact rows: model, eval function, platform.
func TestTable1Catalog(t *testing.T) {
	rows := Table1()
	want := []struct {
		name, eval string
		frameworks []Framework
	}{
		{"VAE", "Reconstruction Loss", []Framework{PyTorch}},
		{"MNIST", "Cross Entropy", []Framework{PyTorch}},
		{"LSTM-CFC", "Softmax", []Framework{TensorFlow}},
		{"LSTM-CRF", "Squared Loss", []Framework{PyTorch}},
		{"Bidirectional-RNN", "Softmax", []Framework{TensorFlow}},
		{"RNN-GRU", "Quadratic Loss", []Framework{TensorFlow}},
	}
	if len(rows) != len(want) {
		t.Fatalf("Table1 has %d rows, want %d", len(rows), len(want))
	}
	for i, w := range want {
		if rows[i].Name != w.name {
			t.Errorf("row %d name = %s, want %s", i, rows[i].Name, w.name)
		}
		if rows[i].EvalFunction != w.eval {
			t.Errorf("row %d eval = %s, want %s", i, rows[i].EvalFunction, w.eval)
		}
	}
}

// TestByKey looks catalog profiles up by key through Find.
func TestByKey(t *testing.T) {
	p, ok := Find("MNIST (Tensorflow)")
	if !ok || p.Name != "MNIST" || p.Framework != TensorFlow {
		t.Fatalf("Find returned %+v, %v", p, ok)
	}
	if _, ok := Find("nope"); ok {
		t.Error("unknown key found")
	}
}

// TestGrowthEfficiencyCrossings verifies the calibration story in the
// catalog comments: with G ≈ K·(E−E∞), VAE must fall below α=5% early in
// its run, while MNIST-TF must stay above 5% for its entire (short) run —
// that asymmetry is what lets FlowCon shift resources to the tail job.
func TestGrowthEfficiencyCrossings(t *testing.T) {
	// |dE/dw| as a central difference of the noiseless curve.
	g := func(p Profile, w float64) float64 {
		const h = 1e-6
		return math.Abs(p.Curve.Eval(w+h)-p.Curve.Eval(w-h)) / (2 * h)
	}
	const alpha = 0.03 // FlowCon's best setting in the paper
	vae := VAEPyTorch()
	if g(vae, 0) < alpha {
		t.Fatalf("VAE starts below alpha: %v", g(vae, 0))
	}
	if g(vae, 60) > alpha {
		t.Fatalf("VAE still above alpha at w=60: %v (should be converged)", g(vae, 60))
	}
	mtf := MNISTTensorFlow()
	if g(mtf, mtf.TotalWork*0.9) < alpha {
		t.Fatalf("MNIST-TF fell below alpha well before finishing: %v", g(mtf, mtf.TotalWork*0.9))
	}
	// GRU collapses very fast: below alpha within its first third.
	gru := GRU()
	if g(gru, gru.TotalWork/3) > alpha {
		t.Fatalf("GRU still above alpha at third of run: %v", g(gru, gru.TotalWork/3))
	}
	// Measured growth-efficiency magnitudes stay within roughly one order
	// of magnitude across models, so Algorithm 1's G/ΣG shares cannot
	// starve mid-life jobs (see catalog calibration notes).
	maxG0, minG0 := 0.0, math.Inf(1)
	for _, p := range Catalog() {
		peak := 0.0
		for w := 0.0; w <= p.TotalWork; w += p.TotalWork / 100 {
			if s := g(p, w); s > peak {
				peak = s
			}
		}
		if peak > maxG0 {
			maxG0 = peak
		}
		if peak < minG0 {
			minG0 = peak
		}
	}
	if maxG0/minG0 > 20 {
		t.Fatalf("peak growth efficiencies span %.1fx across models (max %.3g min %.3g); cross-model starvation risk", maxG0/minG0, maxG0, minG0)
	}
}

func TestProfileValidatePanics(t *testing.T) {
	good := GRU()
	cases := []func(p *Profile){
		func(p *Profile) { p.Name = "" },
		func(p *Profile) { p.TotalWork = 0 },
		func(p *Profile) { p.CPUDemand = 0 },
		func(p *Profile) { p.CPUDemand = 1.5 },
		func(p *Profile) { p.Curve = nil },
		func(p *Profile) { p.NoiseAmp = -1 },
		func(p *Profile) { p.Curve = ExpCurve{Start: 1, Final: 0, K: 0} },
		func(p *Profile) { p.Curve = ExpCurve{Start: 1, Final: 0, K: math.NaN()} },
		func(p *Profile) { p.TotalWork = math.NaN() },
		func(p *Profile) { p.TotalWork = math.Inf(1) },
		func(p *Profile) { p.CPUDemand = math.NaN() },
		func(p *Profile) { p.NoiseAmp = math.NaN() },
		func(p *Profile) { p.MemoryBytes = math.NaN() },
		func(p *Profile) { p.MemoryBytes = math.Inf(1) },
		func(p *Profile) { p.MemoryBytes = -1 },
	}
	for i, mutate := range cases {
		p := good
		mutate(&p)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: invalid profile did not panic", i)
				}
			}()
			p.Validate()
		}()
	}
}

func TestJobEmptyIDPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("empty job id did not panic")
		}
	}()
	NewJob("", GRU())
}

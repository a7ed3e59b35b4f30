package workload

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strconv"
	"testing"

	"repro/internal/dlmodel"
)

// allProcesses returns one representative of every arrival process, for
// table-driven invariant tests.
func allProcesses() map[string]ArrivalProcess {
	return map[string]ArrivalProcess{
		"poisson":    Poisson{Rate: 0.1, WindowSec: 200},
		"onoff":      OnOff{OnRate: 0.4, OnSec: 20, OffSec: 60, WindowSec: 300},
		"diurnal":    Diurnal{BaseRate: 0.08, Amplitude: 0.9, PeriodSec: 150, WindowSec: 300},
		"flashcrowd": FlashCrowd{BaseRate: 0.02, SpikeAt: 100, SpikeSec: 20, SpikeRate: 0.5, WindowSec: 300},
		"productionday": ProductionDay{BaseRate: 0.1, Amplitude: 0.7, WindowSec: 400,
			Spikes: []Spike{{At: 80, Sec: 30, Rate: 0.4}, {At: 90, Sec: 40, Rate: 0.3}}},
	}
}

// Every process yields ascending times inside its window, identically for
// the same rng seed and differently for another seed.
func TestProcessesSortedBoundedDeterministic(t *testing.T) {
	for name, p := range allProcesses() {
		t.Run(name, func(t *testing.T) {
			a := p.Times(rand.New(rand.NewSource(42)))
			b := p.Times(rand.New(rand.NewSource(42)))
			c := p.Times(rand.New(rand.NewSource(43)))
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("same seed produced different times:\n%v\n%v", a, b)
			}
			if reflect.DeepEqual(a, c) && len(a) > 0 {
				t.Fatalf("different seeds produced identical times %v", a)
			}
			if !sort.Float64sAreSorted(a) {
				t.Fatalf("times not ascending: %v", a)
			}
			for _, at := range a {
				if at < 0 || at >= p.Window() {
					t.Fatalf("arrival %g outside [0, %g)", at, p.Window())
				}
			}
		})
	}
}

// The Poisson count concentrates around rate·window.
func TestPoissonRate(t *testing.T) {
	p := Poisson{Rate: 0.5, WindowSec: 2000}
	total := 0
	const draws = 20
	for seed := int64(0); seed < draws; seed++ {
		total += len(p.Times(rand.New(rand.NewSource(seed))))
	}
	mean := float64(total) / draws
	want := p.Rate * p.WindowSec // 1000
	if math.Abs(mean-want) > 0.1*want {
		t.Fatalf("mean arrivals %.1f, want about %.1f", mean, want)
	}
}

// ON/OFF arrivals only land during ON phases.
func TestOnOffArrivalsInOnPhases(t *testing.T) {
	p := OnOff{OnRate: 0.5, OnSec: 30, OffSec: 90, WindowSec: 600}
	for seed := int64(0); seed < 10; seed++ {
		for _, at := range p.Times(rand.New(rand.NewSource(seed))) {
			if phase := math.Mod(at, p.OnSec+p.OffSec); phase >= p.OnSec {
				t.Fatalf("seed %d: arrival at %g falls %gs into an OFF phase", seed, at, phase-p.OnSec)
			}
		}
	}
}

// The diurnal peak half-period receives measurably more arrivals than the
// trough half-period.
func TestDiurnalDensityFollowsSinusoid(t *testing.T) {
	p := Diurnal{BaseRate: 0.3, Amplitude: 0.9, PeriodSec: 200, WindowSec: 2000}
	peak, trough := 0, 0
	for seed := int64(0); seed < 10; seed++ {
		for _, at := range p.Times(rand.New(rand.NewSource(seed))) {
			if math.Sin(2*math.Pi*at/p.PeriodSec) > 0 {
				peak++
			} else {
				trough++
			}
		}
	}
	if peak < 2*trough {
		t.Fatalf("peak half-periods got %d arrivals vs %d in troughs; want a strong skew", peak, trough)
	}
}

// The flash-crowd spike interval is far denser than the background.
func TestFlashCrowdSpikeDensity(t *testing.T) {
	p := FlashCrowd{BaseRate: 0.01, SpikeAt: 100, SpikeSec: 50, SpikeRate: 0.5, WindowSec: 400}
	inSpike, outside := 0, 0
	for seed := int64(0); seed < 10; seed++ {
		for _, at := range p.Times(rand.New(rand.NewSource(seed))) {
			if at >= p.SpikeAt && at < p.SpikeAt+p.SpikeSec {
				inSpike++
			} else {
				outside++
			}
		}
	}
	// The spike window is 1/8 of the trace but carries ~87% of the rate mass.
	if inSpike <= outside {
		t.Fatalf("spike got %d arrivals vs %d outside; spike should dominate", inSpike, outside)
	}
}

// MaxJobs caps the arrival count.
func TestMaxJobsCap(t *testing.T) {
	p := Poisson{Rate: 10, WindowSec: 1000, MaxJobs: 7}
	if n := len(p.Times(rand.New(rand.NewSource(1)))); n != 7 {
		t.Fatalf("capped process yielded %d arrivals, want 7", n)
	}
}

// Invalid process parameters fail fast.
func TestProcessValidation(t *testing.T) {
	cases := map[string]ArrivalProcess{
		"zero window":    Poisson{Rate: 1, WindowSec: 0},
		"zero rate":      Poisson{Rate: 0, WindowSec: 100},
		"inf rate":       Poisson{Rate: math.Inf(1), WindowSec: 100},
		"bad on phase":   OnOff{OnRate: 1, OnSec: 0, OffSec: 10, WindowSec: 100},
		"bad amplitude":  Diurnal{BaseRate: 1, Amplitude: 1.5, PeriodSec: 10, WindowSec: 100},
		"bad period":     Diurnal{BaseRate: 1, Amplitude: 0.5, PeriodSec: 0, WindowSec: 100},
		"bad spike":      FlashCrowd{BaseRate: 1, SpikeAt: -1, SpikeSec: 10, SpikeRate: 1, WindowSec: 100},
		"zero spike len": FlashCrowd{BaseRate: 1, SpikeAt: 10, SpikeSec: 0, SpikeRate: 1, WindowSec: 100},
		"inf window":     Poisson{Rate: 1, WindowSec: math.Inf(1)},
	}
	for name, p := range cases {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", name)
				}
			}()
			p.Times(rand.New(rand.NewSource(1)))
		})
	}
}

// Weighted sampling tracks the configured weights.
func TestMixWeightedSampling(t *testing.T) {
	short := dlmodel.MNISTTensorFlow()
	long := dlmodel.VAEPyTorch()
	m := Mix{{Profile: short, Weight: 3}, {Profile: long, Weight: 1}}
	rng := rand.New(rand.NewSource(5))
	counts := map[string]int{}
	const draws = 4000
	for i := 0; i < draws; i++ {
		counts[m.sample(rng, m.totalWeight()).Key()]++
	}
	frac := float64(counts[short.Key()]) / draws
	if frac < 0.70 || frac > 0.80 {
		t.Fatalf("3:1 mix drew the heavy entry %.1f%% of the time, want ~75%%", frac*100)
	}
}

// Mix validation rejects empty mixes and bad weights.
func TestMixValidation(t *testing.T) {
	for name, m := range map[string]Mix{
		"empty":       {},
		"zero weight": {{Profile: dlmodel.GRU(), Weight: 0}},
		"neg weight":  {{Profile: dlmodel.GRU(), Weight: -1}},
		"nan weight":  {{Profile: dlmodel.GRU(), Weight: math.NaN()}},
		"huge weight": {{Profile: dlmodel.GRU(), Weight: 1e300}},
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s mix did not panic", name)
				}
			}()
			m.validate()
		})
	}
}

// schedule collects the generator's stream for the seed.
func schedule(t testing.TB, g Generator, seed int64) []Submission {
	t.Helper()
	subs, err := Collect(g.Stream(seed))
	if err != nil {
		t.Fatalf("seed %d: stream error: %v", seed, err)
	}
	return subs
}

// Generator output is a valid schedule: deterministic per seed, ascending,
// labelled Job-1..Job-n, with profiles drawn from the mix.
func TestGeneratorSchedule(t *testing.T) {
	gen := Generator{
		Process: Poisson{Rate: 0.05, WindowSec: 200},
		Mix:     UniformMix(dlmodel.GRU(), dlmodel.MNISTTensorFlow()),
	}
	a := schedule(t, gen, 11)
	b := schedule(t, gen, 11)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different schedules")
	}
	if len(a) == 0 {
		t.Fatal("empty schedule despite MinJobs default")
	}
	allowed := map[string]bool{dlmodel.GRU().Key(): true, dlmodel.MNISTTensorFlow().Key(): true}
	for i, s := range a {
		if want := "Job-" + strconv.Itoa(i+1); s.Name != want {
			t.Fatalf("submission %d named %q, want %q", i, s.Name, want)
		}
		if i > 0 && a[i-1].At > s.At {
			t.Fatalf("arrivals out of order at %d: %g after %g", i, s.At, a[i-1].At)
		}
		if !allowed[s.Profile.Key()] {
			t.Fatalf("submission %d drew %q, outside the mix", i, s.Profile.Key())
		}
	}
}

// MinJobs pads a sparse draw up to the floor.
func TestGeneratorMinJobs(t *testing.T) {
	gen := Generator{
		Process: Poisson{Rate: 1e-9, WindowSec: 100}, // essentially never fires
		MinJobs: 5,
	}
	subs := schedule(t, gen, 3)
	if len(subs) != 5 {
		t.Fatalf("got %d submissions, want the MinJobs floor of 5", len(subs))
	}
	for _, s := range subs {
		if s.At < 0 || s.At >= 100 {
			t.Fatalf("padded arrival %g outside the window", s.At)
		}
	}
}

// Generator rejects a missing process.
func TestGeneratorValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("generator without process did not panic")
		}
	}()
	Generator{}.Stream(1)
}

// FuzzGenerate hammers the generator with arbitrary process parameters
// and seeds: whatever the inputs, the schedule must be deterministic,
// ascending, bounded by the window, and labelled sequentially.
func FuzzGenerate(f *testing.F) {
	f.Add(int64(1), uint8(0), 0.05, 200.0, uint8(4))
	f.Add(int64(99), uint8(1), 0.3, 50.0, uint8(0))
	f.Add(int64(-7), uint8(2), 0.01, 500.0, uint8(9))
	f.Add(int64(0), uint8(3), 2.0, 30.0, uint8(1))
	f.Add(int64(12345), uint8(4), 0.7, 120.0, uint8(3))
	f.Add(int64(7), uint8(5), 0.2, 100.0, uint8(6))
	f.Fuzz(func(t *testing.T, seed int64, kind uint8, rate, window float64, minJobs uint8) {
		// Clamp fuzzed parameters into the valid domain; validation
		// panics for invalid ones are covered by TestProcessValidation.
		if math.IsNaN(rate) || math.IsInf(rate, 0) || rate <= 0 {
			rate = 0.05
		}
		rate = math.Min(rate, 5)
		if math.IsNaN(window) || math.IsInf(window, 0) || window <= 0 {
			window = 100
		}
		window = math.Min(window, 5000)
		var proc ArrivalProcess
		switch kind % 5 {
		case 0:
			proc = Poisson{Rate: rate, WindowSec: window, MaxJobs: 200}
		case 1:
			proc = OnOff{OnRate: rate, OnSec: window / 7, OffSec: window / 5, WindowSec: window, MaxJobs: 200}
		case 2:
			proc = Diurnal{BaseRate: rate, Amplitude: 0.8, PeriodSec: window / 3, WindowSec: window, MaxJobs: 200}
		case 3:
			proc = FlashCrowd{BaseRate: rate, SpikeAt: window / 4, SpikeSec: window / 8, SpikeRate: rate * 3,
				WindowSec: window, MaxJobs: 200}
		default:
			proc = ProductionDay{BaseRate: rate, Amplitude: 0.6, WindowSec: window, MaxJobs: 200,
				Spikes: []Spike{{At: window / 5, Sec: window / 10, Rate: rate * 2},
					{At: window / 4, Sec: window / 10, Rate: rate}}}
		}
		gen := Generator{Process: proc, MinJobs: int(minJobs) % 20}
		subs := schedule(t, gen, seed)
		again := schedule(t, gen, seed)
		if !reflect.DeepEqual(subs, again) {
			t.Fatalf("non-deterministic: %v vs %v", subs, again)
		}
		if len(subs) == 0 {
			t.Fatal("empty schedule")
		}
		if min := gen.MinJobs; min > 0 && len(subs) < min {
			t.Fatalf("%d submissions below MinJobs %d", len(subs), min)
		}
		for i, s := range subs {
			if s.Name != "Job-"+strconv.Itoa(i+1) {
				t.Fatalf("submission %d labelled %q", i, s.Name)
			}
			if s.At < 0 || s.At >= window {
				t.Fatalf("arrival %g outside [0, %g)", s.At, window)
			}
			if i > 0 && subs[i-1].At > s.At {
				t.Fatalf("arrivals out of order at %d", i)
			}
			if _, ok := dlmodel.Find(s.Profile.Key()); !ok {
				t.Fatalf("submission %d has non-catalog profile %q", i, s.Profile.Key())
			}
		}
	})
}

package workload

import (
	"fmt"
	"math"
	"math/rand"
)

// ArrivalProcess generates job-arrival times inside a bounded window.
// Implementations must be pure functions of the supplied rng so that the
// same seed always yields the same schedule — the scenario engine relies
// on this to keep parallel sweeps byte-identical to serial runs.
type ArrivalProcess interface {
	// Times draws arrival offsets in seconds, ascending, all in
	// [0, Window()).
	Times(rng *rand.Rand) []float64
	// Window is the length of the arrival window in seconds.
	Window() float64
	// Describe returns a short human-readable summary of the process.
	Describe() string
}

// thinning draws an inhomogeneous Poisson process on [0, window) by
// Lewis–Shedler thinning: candidate arrivals come from a homogeneous
// process at the peak rate, and each is accepted with probability
// rate(t)/peak. With a constant rate this degenerates to the classic
// exponential-gap construction (every candidate accepted). A positive
// maxJobs stops the draw at that many arrivals, before another candidate
// is drawn.
func thinning(rng *rand.Rand, window, peak float64, rate func(t float64) float64, maxJobs int) []float64 {
	if !(window > 0) || math.IsInf(window, 0) {
		panic(fmt.Sprintf("workload: arrival window %g must be positive and finite", window))
	}
	if !(peak > 0) || math.IsInf(peak, 0) {
		panic(fmt.Sprintf("workload: peak arrival rate %g must be positive and finite", peak))
	}
	var out []float64
	for t := 0.0; maxJobs <= 0 || len(out) < maxJobs; {
		t += rng.ExpFloat64() / peak
		if t >= window {
			break
		}
		if r := rate(t); r > 0 && rng.Float64()*peak <= r {
			out = append(out, t)
		}
	}
	return out
}

// Poisson is a memoryless arrival stream: independent exponential gaps at
// a constant rate — the baseline "steady production traffic" process.
type Poisson struct {
	// Rate is the mean arrival rate in jobs per second.
	Rate float64
	// WindowSec bounds arrivals to [0, WindowSec).
	WindowSec float64
	// MaxJobs caps the number of arrivals (0 = uncapped).
	MaxJobs int
}

// Times implements ArrivalProcess.
func (p Poisson) Times(rng *rand.Rand) []float64 {
	return thinning(rng, p.WindowSec, p.Rate, func(float64) float64 { return p.Rate }, p.MaxJobs)
}

// Window implements ArrivalProcess.
func (p Poisson) Window() float64 { return p.WindowSec }

// Describe implements ArrivalProcess.
func (p Poisson) Describe() string {
	return fmt.Sprintf("Poisson arrivals, %.3g jobs/s over %gs", p.Rate, p.WindowSec)
}

// OnOff is a bursty stream: arrivals come at OnRate during ON phases and
// stop entirely during OFF phases, cycling for the whole window — the
// shape of batch-submission front-ends that flush queues periodically.
type OnOff struct {
	// OnRate is the arrival rate during ON phases, jobs per second.
	OnRate float64
	// OnSec and OffSec are the phase lengths; the cycle starts ON at t=0.
	OnSec, OffSec float64
	// WindowSec bounds arrivals to [0, WindowSec).
	WindowSec float64
	// MaxJobs caps the number of arrivals (0 = uncapped).
	MaxJobs int
}

// Times implements ArrivalProcess.
func (p OnOff) Times(rng *rand.Rand) []float64 {
	if !(p.OnSec > 0) || p.OffSec < 0 {
		panic(fmt.Sprintf("workload: on/off phases %g/%g invalid", p.OnSec, p.OffSec))
	}
	cycle := p.OnSec + p.OffSec
	rate := func(t float64) float64 {
		if math.Mod(t, cycle) < p.OnSec {
			return p.OnRate
		}
		return 0
	}
	return thinning(rng, p.WindowSec, p.OnRate, rate, p.MaxJobs)
}

// Window implements ArrivalProcess.
func (p OnOff) Window() float64 { return p.WindowSec }

// Describe implements ArrivalProcess.
func (p OnOff) Describe() string {
	return fmt.Sprintf("ON/OFF bursts, %.3g jobs/s for %gs every %gs over %gs",
		p.OnRate, p.OnSec, p.OnSec+p.OffSec, p.WindowSec)
}

// Diurnal is a sinusoidally modulated stream: the rate swings around
// BaseRate with relative amplitude Amplitude once per Period — a
// compressed day/night load cycle.
type Diurnal struct {
	// BaseRate is the mean arrival rate in jobs per second.
	BaseRate float64
	// Amplitude in [0, 1] scales the swing: rate(t) =
	// BaseRate·(1 + Amplitude·sin(2πt/Period)).
	Amplitude float64
	// PeriodSec is the length of one full cycle.
	PeriodSec float64
	// WindowSec bounds arrivals to [0, WindowSec).
	WindowSec float64
	// MaxJobs caps the number of arrivals (0 = uncapped).
	MaxJobs int
}

// Times implements ArrivalProcess.
func (p Diurnal) Times(rng *rand.Rand) []float64 {
	if p.Amplitude < 0 || p.Amplitude > 1 {
		panic(fmt.Sprintf("workload: diurnal amplitude %g outside [0,1]", p.Amplitude))
	}
	if !(p.PeriodSec > 0) {
		panic(fmt.Sprintf("workload: diurnal period %g must be positive", p.PeriodSec))
	}
	peak := p.BaseRate * (1 + p.Amplitude)
	rate := func(t float64) float64 {
		return p.BaseRate * (1 + p.Amplitude*math.Sin(2*math.Pi*t/p.PeriodSec))
	}
	return thinning(rng, p.WindowSec, peak, rate, p.MaxJobs)
}

// Window implements ArrivalProcess.
func (p Diurnal) Window() float64 { return p.WindowSec }

// Describe implements ArrivalProcess.
func (p Diurnal) Describe() string {
	return fmt.Sprintf("diurnal sinusoid, %.3g±%.0f%% jobs/s, period %gs over %gs",
		p.BaseRate, p.Amplitude*100, p.PeriodSec, p.WindowSec)
}

// FlashCrowd is a steady trickle with one superimposed spike: BaseRate
// everywhere plus SpikeRate extra during [SpikeAt, SpikeAt+SpikeSec) —
// the flash-crowd / retry-storm shape that stresses admission control.
type FlashCrowd struct {
	// BaseRate is the background arrival rate in jobs per second.
	BaseRate float64
	// SpikeAt is when the crowd hits, seconds into the window.
	SpikeAt float64
	// SpikeSec is how long the spike lasts.
	SpikeSec float64
	// SpikeRate is the extra arrival rate during the spike.
	SpikeRate float64
	// WindowSec bounds arrivals to [0, WindowSec).
	WindowSec float64
	// MaxJobs caps the number of arrivals (0 = uncapped).
	MaxJobs int
}

// Times implements ArrivalProcess.
func (p FlashCrowd) Times(rng *rand.Rand) []float64 {
	if p.SpikeAt < 0 || !(p.SpikeSec > 0) || !(p.SpikeRate > 0) {
		panic(fmt.Sprintf("workload: flash crowd spike (at=%g dur=%g rate=%g) invalid",
			p.SpikeAt, p.SpikeSec, p.SpikeRate))
	}
	if p.SpikeAt >= p.WindowSec {
		// A spike the window never reaches silently degenerates to a plain
		// trickle — surely a parameter mistake, so fail loudly.
		panic(fmt.Sprintf("workload: flash crowd spike at %gs starts beyond the %gs window",
			p.SpikeAt, p.WindowSec))
	}
	peak := p.BaseRate + p.SpikeRate
	rate := func(t float64) float64 {
		if t >= p.SpikeAt && t < p.SpikeAt+p.SpikeSec {
			return p.BaseRate + p.SpikeRate
		}
		return p.BaseRate
	}
	return thinning(rng, p.WindowSec, peak, rate, p.MaxJobs)
}

// Window implements ArrivalProcess.
func (p FlashCrowd) Window() float64 { return p.WindowSec }

// Describe implements ArrivalProcess.
func (p FlashCrowd) Describe() string {
	return fmt.Sprintf("flash crowd, %.3g jobs/s base + %.3g jobs/s spike at %gs for %gs over %gs",
		p.BaseRate, p.SpikeRate, p.SpikeAt, p.SpikeSec, p.WindowSec)
}

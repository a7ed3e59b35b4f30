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

// TimesIter is a pull iterator over arrival offsets: each call yields the
// next ascending time in [0, Window()), with ok=false once the process is
// exhausted. It is the Go iter.Pull shape without the stop function —
// arrival processes have no resources to release.
type TimesIter func() (t float64, ok bool)

// Streamer is an ArrivalProcess that can also emit its times lazily, one
// pull at a time. TimesIter must consume the rng exactly as Times does
// and yield the identical ascending sequence — Generator.Stream relies on
// that to stay byte-identical to Generator.Generate — but it is free of
// the eager maxArrivals safety cap: a streaming consumer holds O(1)
// state, so only the intentional MaxJobs cap (when set) truncates it.
type Streamer interface {
	ArrivalProcess
	TimesIter(rng *rand.Rand) TimesIter
}

// maxArrivals is the safety cap on *materialized* arrivals from a single
// process: an eager Times call that reaches it panics (see collectTimes),
// so a runaway rate parameter fails loudly instead of swamping the
// process's caller with an unbounded schedule. The streaming path
// (Streamer.TimesIter / Generator.Stream) is exempt — it holds O(1)
// state, and megacluster schedules intentionally run past this cap.
const maxArrivals = 100000

// thinningIter draws an inhomogeneous Poisson process on [0, window) by
// Lewis–Shedler thinning, one accepted arrival per pull: candidate
// arrivals come from a homogeneous process at the peak rate, and each is
// accepted with probability rate(t)/peak. With a constant rate this
// degenerates to the classic exponential-gap construction (every
// candidate accepted). A positive maxJobs truncates the stream after that
// many arrivals — the intentional, documented cap.
func thinningIter(rng *rand.Rand, window, peak float64, rate func(t float64) float64, maxJobs int) TimesIter {
	if !(window > 0) || math.IsInf(window, 0) {
		panic(fmt.Sprintf("workload: arrival window %g must be positive and finite", window))
	}
	if !(peak > 0) || math.IsInf(peak, 0) {
		panic(fmt.Sprintf("workload: peak arrival rate %g must be positive and finite", peak))
	}
	emitted := 0
	t := 0.0
	done := false
	return func() (float64, bool) {
		if done || (maxJobs > 0 && emitted >= maxJobs) {
			done = true
			return 0, false
		}
		for {
			t += rng.ExpFloat64() / peak
			if t >= window {
				done = true
				return 0, false
			}
			if r := rate(t); r > 0 && rng.Float64()*peak <= r {
				emitted++
				return t, true
			}
		}
	}
}

// collectTimes materializes a pull iterator for the eager Times path,
// enforcing the maxArrivals safety net loudly: an uncapped process that
// reaches the cap panics with its description (rate and window included)
// instead of silently truncating, and a MaxJobs above the cap is refused
// outright — both are asking for a schedule too large to materialize, and
// the fix is the same: cap with MaxJobs, or stream it.
func collectTimes(it TimesIter, maxJobs int, desc string) []float64 {
	if maxJobs > maxArrivals {
		panic(fmt.Sprintf("workload: MaxJobs %d above the %d-arrival materialization cap (%s) — stream the process instead (Generator.Stream / Streamer.TimesIter)",
			maxJobs, maxArrivals, desc))
	}
	var out []float64
	for t, ok := it(); ok; t, ok = it() {
		if maxJobs <= 0 && len(out) >= maxArrivals {
			panic(fmt.Sprintf("workload: %s exceeded the %d-arrival safety cap with no MaxJobs set — runaway rate? cap it with MaxJobs or stream it (Generator.Stream / Streamer.TimesIter)",
				desc, maxArrivals))
		}
		out = append(out, t)
	}
	return out
}

// Every built-in process streams.
var (
	_ Streamer = Poisson{}
	_ Streamer = OnOff{}
	_ Streamer = Diurnal{}
	_ Streamer = FlashCrowd{}
	_ Streamer = ProductionDay{}
)

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
	return collectTimes(p.TimesIter(rng), p.MaxJobs, p.Describe())
}

// TimesIter implements Streamer.
func (p Poisson) TimesIter(rng *rand.Rand) TimesIter {
	return thinningIter(rng, p.WindowSec, p.Rate, func(float64) float64 { return p.Rate }, p.MaxJobs)
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
	return collectTimes(p.TimesIter(rng), p.MaxJobs, p.Describe())
}

// TimesIter implements Streamer.
func (p OnOff) TimesIter(rng *rand.Rand) TimesIter {
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
	return thinningIter(rng, p.WindowSec, p.OnRate, rate, p.MaxJobs)
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
	return collectTimes(p.TimesIter(rng), p.MaxJobs, p.Describe())
}

// TimesIter implements Streamer.
func (p Diurnal) TimesIter(rng *rand.Rand) TimesIter {
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
	return thinningIter(rng, p.WindowSec, peak, rate, p.MaxJobs)
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
	return collectTimes(p.TimesIter(rng), p.MaxJobs, p.Describe())
}

// TimesIter implements Streamer.
func (p FlashCrowd) TimesIter(rng *rand.Rand) TimesIter {
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
	return thinningIter(rng, p.WindowSec, peak, rate, p.MaxJobs)
}

// Window implements ArrivalProcess.
func (p FlashCrowd) Window() float64 { return p.WindowSec }

// Describe implements ArrivalProcess.
func (p FlashCrowd) Describe() string {
	return fmt.Sprintf("flash crowd, %.3g jobs/s base + %.3g jobs/s spike at %gs for %gs over %gs",
		p.BaseRate, p.SpikeRate, p.SpikeAt, p.SpikeSec, p.WindowSec)
}

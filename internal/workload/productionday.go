package workload

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/dlmodel"
)

// Spike is one flash crowd superimposed on a ProductionDay base: Rate
// extra jobs per second during [At, At+Sec).
type Spike struct {
	// At is when the crowd hits, seconds into the window.
	At float64
	// Sec is how long it lasts.
	Sec float64
	// Rate is the extra arrival rate during the spike, jobs per second.
	Rate float64
}

// ProductionDay composes the production traffic shapes into one arrival
// process: a diurnal sinusoid base with flash-crowd spikes superimposed —
// the traffic a megacluster front door sees over one compressed day. It
// is the workload behind the production-day / megacluster scenario family.
type ProductionDay struct {
	// BaseRate is the mean base arrival rate in jobs per second; the
	// diurnal swing modulates it by ±Amplitude.
	BaseRate float64
	// Amplitude in [0, 1] scales the day/night swing.
	Amplitude float64
	// PeriodSec is the length of one day (default: the whole window).
	PeriodSec float64
	// Spikes are the flash crowds; they may overlap.
	Spikes []Spike
	// WindowSec bounds arrivals to [0, WindowSec).
	WindowSec float64
	// MaxJobs caps the number of arrivals (0 = uncapped).
	MaxJobs int
}

// period returns the effective diurnal period.
func (p ProductionDay) period() float64 {
	if p.PeriodSec > 0 {
		return p.PeriodSec
	}
	return p.WindowSec
}

// peak bounds the instantaneous rate for thinning: the diurnal crest plus
// the largest sum of simultaneously active spikes. A loose bound would
// only waste rejected candidates, but an exact one keeps the candidate
// stream (and so the wall cost of a megacluster draw) minimal.
func (p ProductionDay) peak() float64 {
	type edge struct {
		t    float64
		rate float64
	}
	edges := make([]edge, 0, 2*len(p.Spikes))
	for _, s := range p.Spikes {
		edges = append(edges, edge{s.At, s.Rate}, edge{s.At + s.Sec, -s.Rate})
	}
	// Ends sort before starts at the same instant — spikes are half-open.
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].t != edges[j].t {
			return edges[i].t < edges[j].t
		}
		return edges[i].rate < edges[j].rate
	})
	maxSpike, active := 0.0, 0.0
	for _, e := range edges {
		active += e.rate
		maxSpike = math.Max(maxSpike, active)
	}
	return p.BaseRate*(1+p.Amplitude) + maxSpike
}

// rate is the instantaneous arrival rate at t.
func (p ProductionDay) rate(t float64) float64 {
	r := p.BaseRate * (1 + p.Amplitude*math.Sin(2*math.Pi*t/p.period()))
	for _, s := range p.Spikes {
		if t >= s.At && t < s.At+s.Sec {
			r += s.Rate
		}
	}
	return r
}

// Times implements ArrivalProcess.
func (p ProductionDay) Times(rng *rand.Rand) []float64 {
	if p.Amplitude < 0 || p.Amplitude > 1 {
		panic(fmt.Sprintf("workload: production-day amplitude %g outside [0,1]", p.Amplitude))
	}
	if p.PeriodSec < 0 {
		panic(fmt.Sprintf("workload: production-day period %g must be non-negative (0 = window)", p.PeriodSec))
	}
	for _, s := range p.Spikes {
		if s.At < 0 || !(s.Sec > 0) || !(s.Rate > 0) {
			panic(fmt.Sprintf("workload: production-day spike (at=%g dur=%g rate=%g) invalid",
				s.At, s.Sec, s.Rate))
		}
		if s.At >= p.WindowSec {
			panic(fmt.Sprintf("workload: production-day spike at %gs starts beyond the %gs window",
				s.At, p.WindowSec))
		}
	}
	return thinning(rng, p.WindowSec, p.peak(), p.rate, p.MaxJobs)
}

// Window implements ArrivalProcess.
func (p ProductionDay) Window() float64 { return p.WindowSec }

// Describe implements ArrivalProcess.
func (p ProductionDay) Describe() string {
	return fmt.Sprintf("production day, %.3g±%.0f%% jobs/s + %d spike(s) over %gs",
		p.BaseRate, p.Amplitude*100, len(p.Spikes), p.WindowSec)
}

// ProductionTenantMix skews the catalog toward the short interactive jobs
// that dominate production traffic, with a long-batch tail — the tenant
// blend the production-day scenario family submits. Mean total work is
// ~71 cpu-seconds per job, a quarter of the uniform catalog's, which is
// what makes million-job megacluster runs tractable.
func ProductionTenantMix() Mix {
	return Mix{
		{Profile: dlmodel.MNISTTensorFlow(), Weight: 6},
		{Profile: dlmodel.LogisticRegression(), Weight: 3},
		{Profile: dlmodel.MNISTPyTorch(), Weight: 2},
		{Profile: dlmodel.GRU(), Weight: 2},
		{Profile: dlmodel.LSTMCFC(), Weight: 1.5},
		{Profile: dlmodel.VAEPyTorch(), Weight: 0.5},
	}
}

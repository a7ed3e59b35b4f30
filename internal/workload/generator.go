package workload

import (
	"fmt"
	"math/rand"
	"sort"
)

// Generator composes an arrival process with a job mix into a seeded
// workload: Stream draws arrival times from the process and a model for
// each arrival from the mix, and labels jobs Job-1..Job-n in arrival
// order exactly like the paper's workloads.
//
// Stream is a pure function of the seed — the same seed always yields
// the same schedule — so scenario results stay reproducible under the
// parallel sweep pool.
type Generator struct {
	// Process produces arrival times. Required.
	Process ArrivalProcess
	// Mix is the model distribution (default CatalogMix).
	Mix Mix
	// MinJobs pads sparse draws: if the process yields fewer arrivals,
	// extra ones are drawn uniformly in the window from the same rng
	// (default 1, so a schedule is never empty).
	MinJobs int
}

// Stream draws one workload realization for the seed from a single rng:
// the process's arrival times, then uniform padding up to MinJobs, then
// — one per pull, in sorted-time order — each job's model. The stream
// holds the sorted times (8 B per arrival) and builds each submission
// only when it is pulled.
func (g Generator) Stream(seed int64) ArrivalStream {
	if g.Process == nil {
		panic("workload: generator without arrival process")
	}
	mix := g.Mix
	if mix == nil {
		mix = CatalogMix()
	}
	mix.validate()

	rng := rand.New(rand.NewSource(seed))
	times := g.Process.Times(rng)
	for len(times) < max(g.MinJobs, 1) {
		times = append(times, rng.Float64()*g.Process.Window())
	}
	sort.Float64s(times)
	return &genStream{mix: mix, total: mix.totalWeight(), rng: rng, times: times}
}

type genStream struct {
	mix   Mix
	total float64
	rng   *rand.Rand // positioned after the last time draw
	times []float64
	i     int
}

func (s *genStream) Next() (Submission, bool) {
	if s.i >= len(s.times) {
		return Submission{}, false
	}
	t := s.times[s.i]
	s.i++
	return Submission{
		Name:    fmt.Sprintf("Job-%d", s.i),
		Profile: s.mix.sample(s.rng, s.total),
		At:      t,
	}, true
}

func (s *genStream) Err() error { return nil }

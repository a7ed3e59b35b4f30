package workload

import (
	"fmt"
	"math/rand"

	"repro/internal/dlmodel"
)

// MixEntry is one model in a job mix with its sampling weight.
type MixEntry struct {
	Profile dlmodel.Profile
	Weight  float64
}

// Mix is a weighted distribution over model profiles. Arrival generators
// draw each arriving job's model from a Mix, so a scenario can skew
// towards short jobs, long jobs, or any blend of the catalog.
type Mix []MixEntry

// UniformMix gives every profile equal weight.
func UniformMix(profiles ...dlmodel.Profile) Mix {
	if len(profiles) == 0 {
		panic("workload: empty mix")
	}
	m := make(Mix, len(profiles))
	for i, p := range profiles {
		m[i] = MixEntry{Profile: p, Weight: 1}
	}
	return m
}

// CatalogMix is a uniform mix over the full model catalog.
func CatalogMix() Mix {
	return UniformMix(dlmodel.Catalog()...)
}

// validate panics on an unusable mix: no entries, a non-positive or
// non-finite weight, or zero total weight.
func (m Mix) validate() {
	if len(m) == 0 {
		panic("workload: empty mix")
	}
	for _, e := range m {
		if !(e.Weight > 0) || e.Weight > maxWeight {
			panic(fmt.Sprintf("workload: mix weight %g for %s outside (0, %g]", e.Weight, e.Profile.Key(), maxWeight))
		}
	}
}

// maxWeight bounds a single entry's weight so the total cannot overflow.
const maxWeight = 1e12

// totalWeight sums the weights of a validated mix.
func (m Mix) totalWeight() float64 {
	total := 0.0
	for _, e := range m {
		total += e.Weight
	}
	return total
}

// sample draws one profile with probability proportional to its weight,
// against a precomputed total, so Stream validates and sums once per
// schedule instead of once per arrival.
func (m Mix) sample(rng *rand.Rand, total float64) dlmodel.Profile {
	x := rng.Float64() * total
	for _, e := range m {
		x -= e.Weight
		if x < 0 {
			return e.Profile
		}
	}
	// Floating-point slack: x can graze zero on the last entry.
	return m[len(m)-1].Profile
}

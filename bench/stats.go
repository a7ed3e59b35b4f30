package main

import (
	"math"
	"sort"
)

// sortedCopy returns xs sorted ascending without touching the input.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the middle of xs (mean of the two middles for an even
// count); NaN for an empty sample.
func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	switch {
	case n == 0:
		return math.NaN()
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (the "exclusive" method) — the
// benchmark driver computes spread with that function, so the noise
// guard here must agree with it. Fewer than two samples have no spread:
// both quartiles are then the single value (NaN for none).
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	m := len(s)
	if m == 0 {
		return math.NaN(), math.NaN()
	}
	if m == 1 {
		return s[0], s[0]
	}
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3)
}

// rankOf is the 1-based nearest-rank position of the p-th quantile in a
// sample of n (n >= 1).
func rankOf(n int, p float64) int {
	// The epsilon keeps a product such as 0.99*1000, which floating point
	// may put a hair above 990, on its own rank.
	rank := int(math.Ceil(p*float64(n) - 1e-9))
	return min(max(rank, 1), n)
}

// percentile reads the nearest-rank p-th quantile from an ascending
// sample and reports how many samples lie beyond it. The choosing-
// metrics rule is that a tail percentile is only worth quoting with at
// least minBeyond samples beyond it; callers check beyond against that.
func percentile(sorted []float64, p float64) (v float64, beyond int) {
	n := len(sorted)
	if n == 0 {
		return math.NaN(), 0
	}
	rank := rankOf(n, p)
	return sorted[rank-1], n - rank
}

// minBeyond is the number of samples that must lie past a percentile
// before it is reported as a tail figure rather than as the maximum.
const minBeyond = 10

// spread summarises one metric's repetitions.
type spread struct {
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Max    float64 `json:"max"`
	N      int     `json:"n"`
}

func summarize(xs []float64) spread {
	if len(xs) == 0 {
		nan := math.NaN()
		return spread{Median: nan, Min: nan, Q1: nan, Q3: nan, Max: nan}
	}
	s := sortedCopy(xs)
	q1, q3 := quartiles(s)
	return spread{Median: median(s), Min: s[0], Q1: q1, Q3: q3, Max: s[len(s)-1], N: len(s)}
}

// relIQR is the inter-quartile range as a share of the median — the
// driver's steadiness figure.
func (s spread) relIQR() float64 {
	if s.Median == 0 || math.IsNaN(s.Median) {
		return 0
	}
	return (s.Q3 - s.Q1) / math.Abs(s.Median)
}

package main

import (
	"math"
	"testing"
)

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(tc.in); got != tc.want {
			t.Errorf("median(%v) = %g, want %g", tc.in, got, tc.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN")
	}
	in := []float64{3, 1, 2}
	median(in)
	if in[0] != 3 {
		t.Error("median reordered its input")
	}
}

// TestQuartilesMatchPython pins quartiles to what Python's
// statistics.quantiles(xs, n=4) returns, because the benchmark driver
// computes its spread figure with that function.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		in     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 4, 3, 2, 1}, 1.5, 4.5},
		{[]float64{10, 20}, 7.5, 22.5}, // the exclusive method extrapolates on two points
		{[]float64{1, 2, 4, 8, 16, 32, 64}, 2, 32},
		{[]float64{7}, 7, 7},
	} {
		q1, q3 := quartiles(tc.in)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %g, %g; want %g, %g", tc.in, q1, q3, tc.q1, tc.q3)
		}
	}
}

// TestPercentileSamplesBeyond covers the rule that a tail percentile is
// only quotable with at least minBeyond samples past it.
func TestPercentileSamplesBeyond(t *testing.T) {
	sample := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		return s
	}
	for _, tc := range []struct {
		n      int
		p      float64
		want   float64
		beyond int
	}{
		{4000, 0.99, 3960, 40}, // a live repetition: p99 is a real tail figure
		{4000, 0.50, 2000, 2000},
		{1000, 0.99, 990, 10}, // the smallest sample whose p99 qualifies
		{999, 0.99, 990, 9},
		{40, 0.99, 40, 0}, // 40 sweep passes: p99 is the maximum
		{1, 0.99, 1, 0},
		{1, 0.50, 1, 0},
	} {
		v, beyond := percentile(sample(tc.n), tc.p)
		if v != tc.want || beyond != tc.beyond {
			t.Errorf("percentile(1..%d, %g) = %g with %d beyond; want %g with %d", tc.n, tc.p, v, beyond, tc.want, tc.beyond)
		}
		if quotable := beyond >= minBeyond; quotable != (tc.beyond >= 10) {
			t.Errorf("n=%d p=%g: quotable = %v", tc.n, tc.p, quotable)
		}
	}
	if v, beyond := percentile(nil, 0.5); !math.IsNaN(v) || beyond != 0 {
		t.Errorf("percentile of nothing = %g, %d", v, beyond)
	}
}

func TestSummarizeAndNoiseFigure(t *testing.T) {
	s := summarize([]float64{10, 9, 11, 10, 10})
	if s.Median != 10 || s.Min != 9 || s.Max != 11 || s.N != 5 {
		t.Errorf("summarize = %+v", s)
	}
	// Python: quantiles([9,10,10,10,11], n=4) = [9.5, 10.0, 10.5].
	if got := s.relIQR(); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("relIQR = %g, want 0.1", got)
	}
	if got := summarize(nil); got.N != 0 || !math.IsNaN(got.Median) || got.relIQR() != 0 {
		t.Errorf("summarize(nil) = %+v", got)
	}
}

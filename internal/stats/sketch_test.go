package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// exactBounds returns the interval the sketch's answer must fall in for
// quantile q over sample (unsorted): the floor/ceil-rank order statistics
// widened by the relative-error guarantee.
func exactBounds(sample []float64, q, alpha float64) (lo, hi float64) {
	s := append([]float64(nil), sample...)
	sort.Float64s(s)
	rank := int(q * float64(len(s)-1))
	x := s[rank]
	lo = x - alpha*math.Abs(x) - minSketchMagnitude
	hi = x + alpha*math.Abs(x) + minSketchMagnitude
	return lo, hi
}

// TestSketchAccuracyProperty is the documented-error-bound property test:
// across several distribution shapes, sketch p50/p95/p99 must land within
// the relative-error guarantee of the exact order statistic computed from
// the full (dense) sample.
func TestSketchAccuracyProperty(t *testing.T) {
	const alpha = DefaultSketchAccuracy
	rng := rand.New(rand.NewSource(42))
	distributions := map[string]func() float64{
		"uniform":     func() float64 { return rng.Float64() * 100 },
		"exponential": func() float64 { return rng.ExpFloat64() * 10 },
		"heavy-tail":  func() float64 { return math.Exp(rng.NormFloat64() * 3) },
		"constant":    func() float64 { return 3.25 },
		"zero-mixed": func() float64 {
			if rng.Intn(4) == 0 {
				return 0
			}
			return rng.Float64() * 2
		},
		"signed": func() float64 { return rng.NormFloat64() * 50 },
	}
	for name, draw := range distributions {
		t.Run(name, func(t *testing.T) {
			for _, n := range []int{10, 1000, 50000} {
				sk := NewQuantileSketch(alpha)
				sample := make([]float64, n)
				for i := range sample {
					sample[i] = draw()
					sk.Add(sample[i])
				}
				for _, q := range []float64{0.5, 0.95, 0.99} {
					got := sk.Quantile(q)
					lo, hi := exactBounds(sample, q, alpha)
					if got < lo || got > hi {
						t.Fatalf("n=%d q=%g: sketch %g outside [%g, %g]", n, q, got, lo, hi)
					}
				}
			}
		})
	}
}

// A sketch of values near the float64 limit reports finite quantiles
// within α of them: the bucket midpoint 2γ^k/(γ+1) overflows in its
// numerator there, and used to come back as ±Inf.
func TestSketchExtremeValuesStayFinite(t *testing.T) {
	for _, v := range []float64{math.MaxFloat64 / 2, math.MaxFloat64, -math.MaxFloat64 / 2, -math.MaxFloat64} {
		s := NewQuantileSketch(DefaultSketchAccuracy)
		s.Add(v)
		for _, q := range []float64{0, 0.5, 1} {
			got := s.Quantile(q)
			if math.IsInf(got, 0) || math.Abs(got-v) > DefaultSketchAccuracy*math.Abs(v) {
				t.Errorf("sketch of %g: Quantile(%g) = %g, want finite and within α", v, q, got)
			}
		}
	}
}

func TestSketchMatchesWelfordCount(t *testing.T) {
	sk := NewQuantileSketch(0.02)
	var w Welford
	for i := 0; i < 100; i++ {
		v := float64(i) * 1.5
		sk.Add(v)
		w.Add(v)
	}
	if sk.Count() != w.Count() || sk.Count() != 100 {
		t.Fatalf("counts diverged: sketch %d welford %d", sk.Count(), w.Count())
	}
}

func TestSketchZeroAndNegative(t *testing.T) {
	sk := NewQuantileSketch(DefaultSketchAccuracy)
	for _, v := range []float64{-4, -4, 0, 0, 0, 4, 4} {
		sk.Add(v)
	}
	if got := sk.Quantile(0.5); got != 0 {
		t.Fatalf("median of symmetric zero-heavy sample = %g, want 0", got)
	}
	lo := sk.Quantile(0)
	if lo > -4*(1-DefaultSketchAccuracy) || lo < -4*(1+DefaultSketchAccuracy) {
		t.Fatalf("min quantile %g not within bound of -4", lo)
	}
	// Sub-resolution magnitudes fold into the exact zero bucket.
	sk2 := NewQuantileSketch(DefaultSketchAccuracy)
	sk2.Add(1e-12)
	if got := sk2.Quantile(0.5); got != 0 {
		t.Fatalf("sub-resolution value reported as %g, want 0", got)
	}
}

func TestSketchBucketCapCollapses(t *testing.T) {
	sk := NewQuantileSketch(DefaultSketchAccuracy)
	// Spray values across enough magnitude scales to overflow the cap.
	for i := 0; i < 3*maxSketchBuckets; i++ {
		sk.Add(math.Pow(1.021, float64(i)) * 1e-9)
	}
	if got := sk.pos.live; got > maxSketchBuckets {
		t.Fatalf("bucket cap violated: %d buckets", got)
	}
	if !sk.pos.clamped {
		t.Fatal("collapse did not mark the store clamped")
	}
	// Upper quantiles keep their guarantee: only low buckets collapsed.
	if got, want := sk.Quantile(0.99), math.Pow(1.021, float64(3*maxSketchBuckets)*0.99)*1e-9; math.Abs(got-want) > want*0.05 {
		t.Fatalf("p99 after collapse = %g, want ≈%g", got, want)
	}
}

func TestSketchPanics(t *testing.T) {
	assertPanics := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		f()
	}
	assertPanics("bad alpha", func() { NewQuantileSketch(0) })
	assertPanics("alpha one", func() { NewQuantileSketch(1) })
	assertPanics("NaN add", func() { NewQuantileSketch(0.01).Add(math.NaN()) })
	// ±Inf has no bucket: int32(Ceil(+Inf)) is MinInt32 on amd64, which
	// used to file +Inf as the smallest value in the sketch.
	assertPanics("+Inf add", func() { NewQuantileSketch(0.01).Add(math.Inf(1)) })
	assertPanics("-Inf add", func() { NewQuantileSketch(0.01).Add(math.Inf(-1)) })
	assertPanics("empty quantile", func() { NewQuantileSketch(0.01).Quantile(0.5) })
	assertPanics("bad q", func() {
		sk := NewQuantileSketch(0.01)
		sk.Add(1)
		sk.Quantile(1.5)
	})
}

func TestSketchMemoryBytesGrowsWithBuckets(t *testing.T) {
	sk := NewQuantileSketch(DefaultSketchAccuracy)
	empty := sk.MemoryBytes()
	for i := 0; i < 100000; i++ {
		sk.Add(1.0) // one bucket no matter how many samples
	}
	one := sk.MemoryBytes()
	if one <= empty {
		t.Fatalf("memory estimate did not grow with first bucket: %d vs %d", one, empty)
	}
	sk2 := NewQuantileSketch(DefaultSketchAccuracy)
	sk2.Add(1.0)
	if sk.MemoryBytes() != sk2.MemoryBytes() {
		t.Fatalf("memory depends on sample count, not buckets: %d vs %d",
			sk.MemoryBytes(), sk2.MemoryBytes())
	}
}

func TestSketchAddSteadyStateAllocs(t *testing.T) {
	sk := NewQuantileSketch(DefaultSketchAccuracy)
	// Warm every bucket the loop will touch.
	vals := []float64{0, 0.25, 0.5, 1.0, 2.0, -1.5}
	for _, v := range vals {
		sk.Add(v)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		for _, v := range vals {
			sk.Add(v)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state sketch Add allocates %.1f per run, want 0", allocs)
	}
}

func TestWelfordAddAllocs(t *testing.T) {
	var w Welford
	allocs := testing.AllocsPerRun(1000, func() { w.Add(1.5) })
	if allocs != 0 {
		t.Fatalf("Welford.Add allocates %.1f per run, want 0", allocs)
	}
}

package stats

import (
	"math"
	"math/rand"
	"testing"
)

// BenchmarkSketchAdd measures one sketch insert on a usage-like stream:
// values in (0, 1] cycling through 97 levels, so consecutive adds land in
// neighbouring buckets of a store a few dozen buckets wide.
func BenchmarkSketchAdd(b *testing.B) {
	sk := NewQuantileSketch(DefaultSketchAccuracy)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sk.Add(float64(i%97+1) / 97)
	}
}

// BenchmarkSketchAddInterleaved measures one insert as a run sketch sees
// it: every job's samples interleaved, so consecutive values land on keys
// spread over ~800 buckets in no particular order. The values are drawn
// once from a fixed seed and the sketch is warmed over all of them, so the
// timed loop allocates nothing.
func BenchmarkSketchAddInterleaved(b *testing.B) {
	const n = 4096
	sk := NewQuantileSketch(DefaultSketchAccuracy)
	rng := rand.New(rand.NewSource(1))
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = 1e-3 * math.Pow(sk.gamma, float64(rng.Intn(800)))
		sk.Add(vals[i])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sk.Add(vals[i%n])
	}
}

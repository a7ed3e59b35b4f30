package stats

import "testing"

// BenchmarkSketchAdd measures one sketch insert on a usage-like stream:
// values in (0, 1] cycling through 97 levels, so consecutive adds land in
// different buckets (the last-hit miss path) of a store a few dozen
// buckets wide.
func BenchmarkSketchAdd(b *testing.B) {
	sk := NewQuantileSketch(DefaultSketchAccuracy)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sk.Add(float64(i%97+1) / 97)
	}
}

// Package metrics collects and summarizes experiment observables: per-job
// completion times, overall makespan, per-container CPU-usage traces
// (Figures 7, 8, 10, 11, 15, 16), and growth-efficiency traces (Figures 13
// and 14).
//
// Collection is tiered (see Tier). The default summary tier retains only
// constant-memory online summaries per job/kind — Welford moments
// (SeriesSummary) and a bounded growth trajectory (CompactSeries) — so
// collector memory is O(jobs) regardless of makespan. Quantiles are
// run-level in both tiers: the Collector keeps one streaming quantile
// sketch per kind over every job's samples. The dense tier keeps every
// raw sample as a Series, O(jobs × makespan), and nothing else while a
// run samples: its summaries and run sketches are folded from the raw
// series on read. It is required for figure regeneration and limit-event
// traces. Archives exported from either tier carry a schema version
// (ArchiveSchemaVersion) so stale goldens fail loudly.
package metrics

import (
	"fmt"
	"sort"
	"unsafe"
)

// Point is one (time, value) observation.
type Point struct {
	T float64
	V float64
}

// Series chunk sizes: the first chunk holds firstChunk points, and each
// next one doubles up to maxChunk (16 KiB of points, below the runtime's
// 32 KiB large-object size).
const (
	firstChunk = 16
	maxChunk   = 1024
)

// Series is an append-only time series with non-decreasing timestamps.
//
// Memory behavior: O(samples). Points are kept in chunks (firstChunk
// doubling to maxChunk) that are never copied on growth, so a series
// retains at most one partly filled chunk of slack. Dense collection tier only; the summary tier replaces it with
// SeriesSummary and CompactSeries.
type Series struct {
	// chunks are full except the last; none is empty.
	chunks [][]Point
}

// Append adds an observation; timestamps must be non-decreasing.
func (s *Series) Append(t, v float64) {
	n := len(s.chunks)
	size := firstChunk
	if n > 0 {
		last := s.chunks[n-1]
		if prev := last[len(last)-1].T; t < prev {
			panic(fmt.Sprintf("metrics: series timestamp %g before %g", t, prev))
		}
		if len(last) < cap(last) {
			s.chunks[n-1] = append(last, Point{T: t, V: v})
			return
		}
		size = min(2*cap(last), maxChunk)
	}
	c := make([]Point, 1, size)
	c[0] = Point{T: t, V: v}
	s.chunks = append(s.chunks, c)
}

// Len returns the number of observations.
func (s *Series) Len() int {
	n := 0
	for _, c := range s.chunks {
		n += len(c)
	}
	return n
}

// MemoryBytes estimates the series' retained memory: the header plus every
// chunk by capacity, since a chunk is held whole either way.
func (s *Series) MemoryBytes() int {
	total := int(unsafe.Sizeof(*s))
	for _, c := range s.chunks {
		total += cap(c) * int(unsafe.Sizeof(Point{}))
	}
	return total
}

// Points returns the observations as one slice (not a copy; callers must
// not mutate). A series held in several chunks is compacted into one
// slice first, which then replaces the chunks. Later appends never write
// into a slice Points returned.
func (s *Series) Points() []Point {
	switch len(s.chunks) {
	case 0:
		return nil
	case 1:
	default:
		all := s.copyPoints()
		clear(s.chunks[1:])
		s.chunks = s.chunks[:1]
		s.chunks[0] = all
	}
	c := s.chunks[0]
	return c[:len(c):len(c)]
}

// copyPoints returns the observations in one new slice of exactly Len
// points, leaving the chunks as they are.
func (s *Series) copyPoints() []Point {
	out := make([]Point, 0, s.Len())
	for _, c := range s.chunks {
		out = append(out, c...)
	}
	return out
}

// At returns the value in effect at time t under step ("sample and hold")
// interpolation, or 0 before the first observation.
func (s *Series) At(t float64) float64 {
	// The answer lies in the last chunk that starts at or before t.
	i := sort.Search(len(s.chunks), func(i int) bool { return s.chunks[i][0].T > t })
	if i == 0 {
		return 0
	}
	c := s.chunks[i-1]
	j := sort.Search(len(c), func(j int) bool { return c[j].T > t })
	return c[j-1].V
}
